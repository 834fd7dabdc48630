package trace

import (
	"encoding/json"
	"strings"
	"testing"

	"coemu/internal/amba"
)

func TestRecorderRingOrderAndWrap(t *testing.T) {
	r := NewRecorder(4)
	for i := int64(0); i < 6; i++ {
		r.Record(Event{Cycle: i, Kind: EvConservative})
	}
	if r.Len() != 4 {
		t.Fatalf("len = %d, want 4", r.Len())
	}
	if r.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", r.Dropped())
	}
	evs := r.Events()
	for i, ev := range evs {
		if want := int64(i + 2); ev.Cycle != want {
			t.Errorf("event %d cycle = %d, want %d (oldest-first after wrap)", i, ev.Cycle, want)
		}
	}
}

func TestRecorderDefaultSize(t *testing.T) {
	if got := len(NewRecorder(0).buf); got != DefaultRingSize {
		t.Fatalf("default ring = %d, want %d", got, DefaultRingSize)
	}
}

func TestRecordDoesNotAllocate(t *testing.T) {
	r := NewRecorder(1024)
	ev := Event{Cycle: 1, N: 2, Kind: EvRunAhead, Domain: 1, Arg: 3}
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 2000; i++ { // force ring wrap inside the measurement
			r.Record(ev)
		}
	})
	if allocs != 0 {
		t.Fatalf("Record allocated %.1f objects per run, want 0", allocs)
	}
}

func TestWriteEventsJSON(t *testing.T) {
	events := []Event{
		{Cycle: 10, N: 5, Kind: EvRunAhead, Domain: 1},
		{Cycle: 15, Kind: EvMispredict, Domain: 0, Arg: MispredictArg(amba.SigResp, true)},
		{Cycle: 15, Kind: EvRollback, Domain: 1, Arg: 3},
		{Cycle: 16, Kind: EvMispredict, Domain: 0, Arg: MispredictArg(amba.SigSplit, false)},
	}
	var b strings.Builder
	if err := WriteEventsJSON(&b, events, 7); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Dropped int64 `json:"dropped"`
		Events  []struct {
			Cycle  int64  `json:"cycle"`
			N      int64  `json:"n"`
			Kind   string `json:"kind"`
			Domain string `json:"domain"`
			Arg    int64  `json:"arg"`
			Signal string `json:"signal"`
		} `json:"events"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if doc.Dropped != 7 || len(doc.Events) != 4 {
		t.Fatalf("decoded %+v", doc)
	}
	if doc.Events[0].Kind != "run_ahead" || doc.Events[0].Domain != "acc" || doc.Events[0].N != 5 {
		t.Errorf("run-ahead event decoded as %+v", doc.Events[0])
	}
	if doc.Events[2].Kind != "rollback" || doc.Events[2].Arg != 3 {
		t.Errorf("rollback event decoded as %+v", doc.Events[2])
	}
	// A mispredict's arg stays the injected flag; an organic miss names
	// its signal class instead.
	if ev := doc.Events[1]; ev.Kind != "mispredict" || ev.Arg != 1 || ev.Signal != "" {
		t.Errorf("injected mispredict decoded as %+v", ev)
	}
	if ev := doc.Events[3]; ev.Kind != "mispredict" || ev.Arg != 0 || ev.Signal != "hsplit" {
		t.Errorf("organic mispredict decoded as %+v", ev)
	}
}

// TestWriteChromeTrace checks the Perfetto-loadable invariants: a valid
// JSON array, process/thread metadata first, complete events carrying
// ts+dur in target cycles, instants carrying a scope.
func TestWriteChromeTrace(t *testing.T) {
	events := []Event{
		{Cycle: 0, N: 20, Kind: EvConservative},
		{Cycle: 20, Kind: EvSync, Domain: 1},
		{Cycle: 20, Kind: EvStore, Domain: 1},
		{Cycle: 20, N: 40, Kind: EvRunAhead, Domain: 1},
		{Cycle: 20, Kind: EvFlush, Domain: 1, Arg: 17},
		{Cycle: 20, N: 40, Kind: EvFollowUp, Domain: 0},
		{Cycle: 35, Kind: EvMispredict, Domain: 0},
		{Cycle: 35, Kind: EvRollback, Domain: 1, Arg: 15},
		{Cycle: 35, N: 15, Kind: EvRollForth, Domain: 1},
		{Cycle: 60, N: 63, Kind: EvBatchCommit, Arg: BatchConservative},
	}
	var b strings.Builder
	if err := WriteChromeTrace(&b, events); err != nil {
		t.Fatal(err)
	}
	var arr []map[string]any
	if err := json.Unmarshal([]byte(b.String()), &arr); err != nil {
		t.Fatalf("chrome trace is not a valid JSON array: %v\n%s", err, b.String())
	}
	// 1 process_name + one thread_name metadata record per track, then
	// one record per event.
	meta := 1 + len(chromeTracks)
	if want := meta + len(events); len(arr) != want {
		t.Fatalf("trace has %d records, want %d", len(arr), want)
	}
	if arr[0]["ph"] != "M" || arr[0]["name"] != "process_name" {
		t.Errorf("first record is not process metadata: %v", arr[0])
	}
	var spans, instants int
	for _, rec := range arr[meta:] {
		switch rec["ph"] {
		case "X":
			spans++
			if _, ok := rec["dur"]; !ok {
				t.Errorf("complete event without dur: %v", rec)
			}
			if _, ok := rec["ts"]; !ok {
				t.Errorf("complete event without ts: %v", rec)
			}
		case "i":
			instants++
			if rec["s"] != "t" {
				t.Errorf("instant without thread scope: %v", rec)
			}
		default:
			t.Errorf("unexpected phase %v in %v", rec["ph"], rec)
		}
	}
	if spans != 4 || instants != 6 {
		t.Errorf("spans=%d instants=%d, want 4 and 6", spans, instants)
	}
	// The run-ahead span must sit on the run-ahead track with its cycle
	// count as duration.
	for _, rec := range arr {
		if rec["name"] == "run_ahead" {
			if rec["tid"].(float64) != 1 || rec["dur"].(float64) != 40 || rec["ts"].(float64) != 20 {
				t.Errorf("run_ahead span mis-tracked: %v", rec)
			}
		}
	}
}

func TestEventKindNames(t *testing.T) {
	for k := EvConservative; k <= EvStore; k++ {
		if s := k.String(); s == "" || strings.HasPrefix(s, "EventKind(") {
			t.Errorf("kind %d has no name", k)
		}
	}
	if !strings.HasPrefix(EventKind(200).String(), "EventKind(") {
		t.Error("unknown kind should render as EventKind(n)")
	}
}

func TestMispredictArgRoundTrip(t *testing.T) {
	if arg := MispredictArg(amba.SigResp, true); arg != 1 {
		t.Errorf("injected arg = %d, want 1", arg)
	}
	for s := amba.Signal(0); s < amba.NumSignals; s++ {
		got, injected := MispredictInfo(MispredictArg(s, false))
		if injected || got != s {
			t.Errorf("organic %v round-trips as (%v, %v)", s, got, injected)
		}
	}
	var b strings.Builder
	events := []Event{{Kind: EvMispredict, Arg: MispredictArg(amba.SigSplit, false)}}
	if err := WriteChromeTrace(&b, events); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `"signal":"hsplit"`) {
		t.Errorf("chrome trace lacks the signal class:\n%s", b.String())
	}
}
