package channel

import (
	"testing"
	"time"

	"coemu/internal/device"
	"coemu/internal/vclock"
)

func TestSendChargesStartupPlusPayload(t *testing.T) {
	var l vclock.Ledger
	c := New(device.IPROVE(), &l)
	c.Account(SimToAcc, 4)
	want := 12200*time.Nanosecond + time.Duration(4*49950/1000)
	if got := l.Get(vclock.Channel); got != want {
		t.Fatalf("charged %v, want %v", got, want)
	}
	if l.Count(vclock.Channel) != 1 {
		t.Fatal("one access must be one charge")
	}
}

func TestStatsHistogram(t *testing.T) {
	var l vclock.Ledger
	c := New(device.IPROVE(), &l)
	c.Account(SimToAcc, 1)
	c.Account(SimToAcc, 4)
	c.Account(SimToAcc, 40)
	c.Account(AccToSim, 100)
	st := c.Stats()
	if st.TotalAccesses() != 4 || st.TotalWords() != 145 {
		t.Fatalf("stats %+v", st)
	}
	if st.SizeHist[SimToAcc][0] != 1 || st.SizeHist[SimToAcc][2] != 1 || st.SizeHist[SimToAcc][4] != 1 {
		t.Fatalf("sim->acc hist %v", st.SizeHist[SimToAcc])
	}
	if st.SizeHist[AccToSim][5] != 1 {
		t.Fatalf("acc->sim hist %v", st.SizeHist[AccToSim])
	}
	if len(BucketLabels()) != 6 {
		t.Fatal("bucket labels")
	}
}

func TestZeroPayloadStillCostsStartup(t *testing.T) {
	var l vclock.Ledger
	c := New(device.IPROVE(), &l)
	c.Account(SimToAcc, 0)
	if got := l.Get(vclock.Channel); got != 12200*time.Nanosecond {
		t.Fatalf("empty access charged %v", got)
	}
}

func TestNilLedgerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil ledger must panic")
		}
	}()
	New(device.IPROVE(), nil)
}
