package amba

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func randomPartial(r *rand.Rand) PartialState {
	var p PartialState
	p.ReqMask = uint32(r.Intn(256))
	p.Req = uint32(r.Intn(256)) & p.ReqMask
	p.IRQMask = uint32(r.Intn(256))
	p.IRQ = uint32(r.Intn(256)) & p.IRQMask
	if r.Intn(2) == 0 {
		p.HasAP = true
		p.AP = AddrPhase{
			Addr:  Addr(r.Uint32()),
			Trans: Trans(r.Intn(4)),
			Write: r.Intn(2) == 0,
			Size:  Size(r.Intn(8)),
			Burst: Burst(r.Intn(8)),
			Prot:  Prot(r.Intn(16)),
		}
	}
	if r.Intn(2) == 0 {
		p.HasWData = true
		p.WData = Word(r.Uint32())
	}
	if r.Intn(2) == 0 {
		p.HasReply = true
		p.Reply = SlaveReply{
			Ready: r.Intn(2) == 0,
			Resp:  Resp(r.Intn(4)),
		}
		if r.Intn(2) == 0 {
			p.Reply.RData = Word(r.Uint32())
		}
	}
	if r.Intn(2) == 0 {
		p.SplitMask = uint32(1 + r.Intn(255))
		p.Split = uint32(r.Intn(256)) & p.SplitMask
	}
	return p
}

func staticOf(p *PartialState) Static { return Static{ReqMask: p.ReqMask, IRQMask: p.IRQMask} }

// Property: Unpack(Pack(p)) == p for any partial state.
func TestPackRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 5000; i++ {
		p := randomPartial(r)
		words := p.Pack(nil)
		if len(words) != p.PackedWords() {
			t.Fatalf("PackedWords = %d but Pack emitted %d", p.PackedWords(), len(words))
		}
		got, rest, err := Unpack(words, staticOf(&p))
		if err != nil {
			t.Fatalf("unpack: %v", err)
		}
		if len(rest) != 0 {
			t.Fatalf("unpack left %d words", len(rest))
		}
		if !got.Equal(p) {
			t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", p, got)
		}
	}
}

// Property: packing is append-only and multiple context-free records
// concatenate and split back correctly.
func TestPackConcatenation(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		n := 1 + r.Intn(8)
		var words []Word
		var in []PartialState
		for j := 0; j < n; j++ {
			p := randomPartial(r)
			in = append(in, p)
			words = p.Pack(words)
		}
		rest := words
		for j := 0; j < n; j++ {
			var got PartialState
			var err error
			got, rest, err = Unpack(rest, staticOf(&in[j]))
			if err != nil {
				t.Fatalf("record %d: %v", j, err)
			}
			if !got.Equal(in[j]) {
				t.Fatalf("record %d mismatch", j)
			}
		}
		if len(rest) != 0 {
			t.Fatalf("leftover %d words", len(rest))
		}
	}
}

func TestUnpackTruncated(t *testing.T) {
	for _, p := range []PartialState{
		{HasAP: true, AP: AddrPhase{Addr: 4, Trans: TransNonSeq, Size: Size32}},
		{HasReply: true, Reply: SlaveReply{Ready: true, RData: 7}},
		{HasWData: true, WData: 9},
		{SplitMask: 3, Split: 1},
	} {
		words := p.Pack(nil)
		for cut := 0; cut < len(words); cut++ {
			if _, _, err := Unpack(words[:cut], Static{}); err == nil {
				t.Errorf("%+v: truncation at %d words not detected", p, cut)
			}
		}
	}
}

func TestUnpackRejectsMalformedHeaders(t *testing.T) {
	for _, h := range []Word{
		Word(apHold),         // hold without a context
		Word(apNext),         // successor without a context
		Word(flagReady),      // reply bits without a reply
		Word(1 << 20),        // reserved bit
		Word(flagRData),      // read data without a reply
		Word(3 << respShift), // HRESP without a reply
	} {
		if _, _, err := Unpack([]Word{h}, Static{}); err == nil {
			t.Errorf("header %08x accepted", uint32(h))
		}
	}
	noAP := PartialState{}
	if _, _, err := UnpackAfter([]Word{Word(apHold)}, &noAP, Static{}); err == nil {
		t.Error("hold after a context without an address phase accepted")
	}
}

// Property (quick): a record costs between one word and MaxPackedWords
// in any context.
func TestPackSizeBounds(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p, prev := randomPartial(r), randomPartial(r)
		for _, ctx := range []*PartialState{nil, &prev, &p} {
			if n := len(p.PackAfter(nil, ctx)); n < 1 || n > MaxPackedWords {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestUnpackEmpty(t *testing.T) {
	if _, _, err := Unpack(nil, Static{}); err == nil {
		t.Fatal("empty unpack must fail")
	}
}

// TestCompactLayout pins the costs the packetizer is built around: a
// SEQ write beat after its predecessor packs into header plus HWDATA,
// a wait-state hold into the header alone, and a bare ready OKAY reply
// into the header alone.
func TestCompactLayout(t *testing.T) {
	beat := PartialState{ReqMask: 1, Req: 1, HasAP: true, HasWData: true, WData: 5,
		AP: AddrPhase{Addr: 0x1c, Trans: TransNonSeq, Write: true, Size: Size32, Burst: BurstWrap8}}
	next := beat
	next.AP = SeqSuccessor(beat.AP)
	if next.AP.Addr != 0x00 {
		t.Fatalf("WRAP8 successor of 0x1c = %#x, want 0", next.AP.Addr)
	}
	okay := PartialState{HasReply: true, Reply: OkayReady()}
	for _, c := range []struct {
		name      string
		p, prev   *PartialState
		wantWords int
	}{
		{"first beat", &beat, nil, 4},
		{"SEQ successor", &next, &beat, 2},
		{"wait-state hold", &beat, &beat, 2},
		{"successor of a successor is not a hold", &beat, &next, 4},
		{"ready OKAY", &okay, nil, 1},
	} {
		if got := c.p.PackedWordsAfter(c.prev); got != c.wantWords {
			t.Errorf("%s: %d words, want %d", c.name, got, c.wantWords)
		}
	}
}

// seqSource draws the choices of a generated record sequence. The
// property test backs it with math/rand, the fuzz target with the fuzz
// input.
type seqSource interface {
	intn(n int) int
	u32() uint32
}

type randSource struct{ r *rand.Rand }

func (s randSource) intn(n int) int { return s.r.Intn(n) }
func (s randSource) u32() uint32    { return s.r.Uint32() }

// byteSource reads choices from fuzz input; an exhausted input reads as
// zeros, which the generator maps to short idle sequences.
type byteSource struct{ b []byte }

func (s *byteSource) next() byte {
	if len(s.b) == 0 {
		return 0
	}
	c := s.b[0]
	s.b = s.b[1:]
	return c
}

func (s *byteSource) intn(n int) int { return int(s.next()) % n }
func (s *byteSource) u32() uint32 {
	return uint32(s.next()) | uint32(s.next())<<8 | uint32(s.next())<<16 | uint32(s.next())<<24
}

var burstKinds = []Burst{BurstIncr, BurstWrap4, BurstWrap8, BurstWrap16, BurstIncr4, BurstSingle}

// genSequence builds n records of one sender the way a bus produces
// them: bursts of INCR and WRAP4/8/16 beats started next to their wrap
// boundary, BUSY beats, wait-state holds, repeated IDLE cycles, replies
// with and without read data, SPLIT/RETRY responses, split words and
// interrupt lines, and now and then an unrelated random record.
func genSequence(src seqSource, n int) []PartialState {
	st := Static{ReqMask: uint32(src.intn(256)), IRQMask: uint32(src.intn(256))}
	splitMask := uint32(0)
	if src.intn(3) == 0 {
		splitMask = uint32(1 + src.intn(255))
	}
	seq := make([]PartialState, 0, n)
	var ap AddrPhase
	for len(seq) < n {
		p := PartialState{ReqMask: st.ReqMask, IRQMask: st.IRQMask, SplitMask: splitMask}
		p.Req = uint32(src.intn(256)) & st.ReqMask
		p.IRQ = uint32(src.intn(256)) & st.IRQMask
		if splitMask != 0 && src.intn(4) == 0 {
			p.Split = uint32(src.intn(256)) & splitMask
		}
		switch src.intn(8) {
		case 0: // start a burst next to its wrap boundary
			b := burstKinds[src.intn(len(burstKinds))]
			size := Size(src.intn(3))
			span := Addr(16 * size.Bytes())
			base := Addr(src.u32()) &^ (span - 1)
			ap = AddrPhase{
				Addr:  base + span - Addr(size.Bytes()*(1+src.intn(2))),
				Trans: TransNonSeq, Write: src.intn(2) == 0,
				Size: size, Burst: b, Prot: Prot(src.intn(16)),
			}
		case 1, 2, 3: // next beat
			ap = SeqSuccessor(ap)
		case 4: // BUSY beat: address and control of the next transfer
			ap = SeqSuccessor(ap)
			ap.Trans = TransBusy
		case 5: // IDLE, repeated while it lasts
			ap = AddrPhase{Trans: TransIdle}
		case 6: // wait-state hold: ap unchanged
		case 7: // unrelated record
			r := randomPartial(rand.New(rand.NewSource(int64(src.u32()))))
			r.ReqMask, r.Req = st.ReqMask, r.Req&st.ReqMask
			r.IRQMask, r.IRQ = st.IRQMask, r.IRQ&st.IRQMask
			seq = append(seq, r)
			continue
		}
		if src.intn(5) != 0 {
			p.HasAP, p.AP = true, ap
		}
		if ap.Write && src.intn(2) == 0 {
			p.HasWData, p.WData = true, Word(src.u32())
		}
		if src.intn(2) == 0 {
			p.HasReply = true
			p.Reply = SlaveReply{Ready: src.intn(4) != 0}
			if src.intn(4) == 0 {
				p.Reply.Resp = Resp(1 + src.intn(3)) // ERROR, RETRY or SPLIT
			}
			if src.intn(2) == 0 {
				p.Reply.RData = Word(src.u32())
			}
		}
		seq = append(seq, p)
	}
	return seq
}

// checkSequence packs seq with context and checks that every record's
// PackedWordsAfter equals what PackAfter emitted and that UnpackAfter
// returns the sequence. It returns the total packed words.
func checkSequence(t *testing.T, seq []PartialState) int {
	t.Helper()
	var words []Word
	var prev *PartialState
	for i := range seq {
		before := len(words)
		words = seq[i].PackAfter(words, prev)
		if got, want := len(words)-before, seq[i].PackedWordsAfter(prev); got != want {
			t.Fatalf("record %d: PackAfter emitted %d words, PackedWordsAfter says %d\n%+v", i, got, want, seq[i])
		}
		prev = &seq[i]
	}
	rest := words
	var ctx *PartialState
	for i := range seq {
		got, r, err := UnpackAfter(rest, ctx, staticOf(&seq[i]))
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got != seq[i] {
			t.Fatalf("record %d round trip mismatch:\n in: %+v\nout: %+v", i, seq[i], got)
		}
		rest = r
		ctx = &seq[i]
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing words", len(rest))
	}
	return len(words)
}

// Property: over bus-shaped record sequences, context packing is exact
// about its size and lossless, and it actually compresses.
func TestPackSequenceRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	packed, free := 0, 0
	for i := 0; i < 2000; i++ {
		seq := genSequence(randSource{r}, 1+r.Intn(40))
		packed += checkSequence(t, seq)
		for j := range seq {
			free += seq[j].PackedWords()
		}
	}
	if packed >= free {
		t.Fatalf("context packing used %d words, context-free %d: no compression", packed, free)
	}
}

// FuzzPackSequence checks the sequence property on fuzzer-chosen
// sequences.
func FuzzPackSequence(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 9, 0, 0, 2, 1, 1, 1, 1, 4, 1, 6, 6, 5, 5, 7})
	f.Add([]byte("\xff\x01\x02\x00\x03\x10\x20\x30\x01\x01\x04\x06\x06\x07\x00\x01"))
	f.Fuzz(func(t *testing.T, data []byte) {
		src := &byteSource{b: data}
		checkSequence(t, genSequence(src, 1+src.intn(64)))
	})
}
