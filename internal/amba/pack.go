package amba

import "fmt"

// Wire encoding of PartialState records.
//
// The channel cost model charges per 32-bit word, so the packetizer packs
// a domain's per-cycle contribution into as few words as possible. A
// record may be packed after a previous record from the same sender (its
// context): inside one flush packet every entry is packed after the
// entry before it on the same side, which is how a burst continuation
// travels in a single word. Conservative and report packets carry one
// record with no context.
//
//	word 0: header
//	  bits  0..1   address-phase mode: none, full, hold, next (see below)
//	  bit   2      HWDATA word follows
//	  bit   3      the slave reply is driven by this sender
//	  bit   4      HREADY
//	  bits  5..6   HRESP
//	  bit   7      HRDATA word follows (only when HRDATA is nonzero)
//	  bits  8..15  HBUSREQ bits (the owned-bit mask is static)
//	  bit   16     HSPLITx word follows
//	  bits 17..23  zero
//	  bits 24..31  interrupt bits (the owned-bit mask is static)
//	then, in order, only the words the header announces:
//	  HADDR, control word    (mode full)
//	  HWDATA
//	  HRDATA
//	  HSPLITx word           (split bits | split mask << 8)
//
// The address phase costs no words when it holds the context's value (a
// wait state, a repeated IDLE) or is its exact SEQ successor (the next
// beat of a burst: NextAddr, same control). A bare ready OKAY reply costs
// no words either, so a streaming write beat packs into two words and
// the predicted reply to it into one.
const (
	apMask uint32 = 0x3
	apNone uint32 = 0 // no address phase driven
	apFull uint32 = 1 // HADDR and the control word follow
	apHold uint32 = 2 // same as the context's address phase
	apNext uint32 = 3 // SEQ successor of the context's address phase

	flagWD     uint32 = 1 << 2
	flagRP     uint32 = 1 << 3
	flagReady  uint32 = 1 << 4
	respShift         = 5
	flagRData  uint32 = 1 << 7
	reqShift          = 8
	flagSP     uint32 = 1 << 16
	irqShift          = 24
	headerUsed uint32 = apMask | flagWD | flagRP | flagReady | 0x3<<respShift | flagRData | 0xff<<reqShift | flagSP | 0xff<<irqShift
)

// MaxPackedWords is the wire-size ceiling of one packed PartialState in
// any context: header, HADDR and control, HWDATA, HRDATA and the split
// word.
const MaxPackedWords = 6

// MaxMasters is the largest number of bus masters the wire encoding (and
// the AHB spec, which defines 16 HBUSREQ lines; we pack 8) supports.
const MaxMasters = 8

// MaxIRQLines is the number of interrupt lines carried in the header.
const MaxIRQLines = 8

// Static is what both channel ends know about a sender without being
// told: the request and interrupt lines it owns. The header carries only
// the owned bits, so a decoded record takes its masks from here.
type Static struct {
	ReqMask, IRQMask uint32
}

// SeqSuccessor returns the address phase of the beat that follows a in
// its burst: a SEQ transfer at NextAddr with the same control.
func SeqSuccessor(a AddrPhase) AddrPhase {
	a.Addr = NextAddr(a.Addr, a.Size, a.Burst)
	a.Trans = TransSeq
	return a
}

// apMode picks the cheapest address-phase encoding of p after prev (nil:
// no context).
func (p *PartialState) apMode(prev *PartialState) uint32 {
	switch {
	case !p.HasAP:
		return apNone
	case prev == nil || !prev.HasAP:
		return apFull
	case p.AP == prev.AP:
		return apHold
	case p.AP.Trans == TransSeq && p.AP == SeqSuccessor(prev.AP):
		return apNext
	}
	return apFull
}

// PackedWords returns the number of words Pack will emit for p.
func (p *PartialState) PackedWords() int { return p.PackedWordsAfter(nil) }

// PackedWordsAfter returns the number of words PackAfter will emit for p
// packed after prev (nil: no context).
func (p *PartialState) PackedWordsAfter(prev *PartialState) int {
	n := 1
	if p.apMode(prev) == apFull {
		n += 2
	}
	if p.HasWData {
		n++
	}
	if p.HasReply && p.Reply.RData != 0 {
		n++
	}
	if p.SplitMask != 0 {
		n++
	}
	return n
}

// Pack appends the context-free wire encoding of p to dst and returns
// the extended slice.
func (p *PartialState) Pack(dst []Word) []Word { return p.PackAfter(dst, nil) }

// PackAfter appends the wire encoding of p packed after prev (nil: no
// context) to dst and returns the extended slice. The receiver decodes
// it with UnpackAfter given the same context.
func (p *PartialState) PackAfter(dst []Word, prev *PartialState) []Word {
	mode := p.apMode(prev)
	header := mode |
		(p.Req&p.ReqMask&0xff)<<reqShift |
		(p.IRQ&p.IRQMask&0xff)<<irqShift
	if p.HasWData {
		header |= flagWD
	}
	if p.HasReply {
		header |= flagRP | (uint32(p.Reply.Resp)&0x3)<<respShift
		if p.Reply.Ready {
			header |= flagReady
		}
		if p.Reply.RData != 0 {
			header |= flagRData
		}
	}
	if p.SplitMask != 0 {
		header |= flagSP
	}
	dst = append(dst, Word(header))
	if mode == apFull {
		dst = append(dst, Word(p.AP.Addr), Word(packCtrl(p.AP)))
	}
	if p.HasWData {
		dst = append(dst, p.WData)
	}
	if header&flagRData != 0 {
		dst = append(dst, p.Reply.RData)
	}
	if p.SplitMask != 0 {
		dst = append(dst, Word((p.Split&p.SplitMask&0xff)|(p.SplitMask&0xff)<<8))
	}
	return dst
}

// packCtrl folds the control group into one word:
// bits 0..1 HTRANS, 2 HWRITE, 3..5 HSIZE, 6..8 HBURST, 9..12 HPROT.
func packCtrl(a AddrPhase) uint32 {
	w := uint32(a.Trans) & 0x3
	if a.Write {
		w |= 1 << 2
	}
	w |= (uint32(a.Size) & 0x7) << 3
	w |= (uint32(a.Burst) & 0x7) << 6
	w |= (uint32(a.Prot) & 0xf) << 9
	return w
}

func unpackCtrl(w uint32) AddrPhase {
	return AddrPhase{
		Trans: Trans(w & 0x3),
		Write: w&(1<<2) != 0,
		Size:  Size((w >> 3) & 0x7),
		Burst: Burst((w >> 6) & 0x7),
		Prot:  Prot((w >> 9) & 0xf),
	}
}

// Unpack decodes one context-free PartialState from the front of src.
func Unpack(src []Word, s Static) (PartialState, []Word, error) {
	return UnpackAfter(src, nil, s)
}

// UnpackAfter decodes one PartialState packed after prev (nil: no
// context) from the front of src, returning the state, the remaining
// words, and an error on truncated or malformed input. s is the sender's
// static configuration.
func UnpackAfter(src []Word, prev *PartialState, s Static) (PartialState, []Word, error) {
	if len(src) == 0 {
		return PartialState{}, nil, fmt.Errorf("amba: unpack: empty input")
	}
	h := uint32(src[0])
	src = src[1:]
	if h&^headerUsed != 0 {
		return PartialState{}, nil, fmt.Errorf("amba: unpack: reserved header bits %08x set", h&^headerUsed)
	}
	p := PartialState{ReqMask: s.ReqMask, IRQMask: s.IRQMask}
	p.Req = (h >> reqShift) & 0xff & s.ReqMask
	p.IRQ = (h >> irqShift) & 0xff & s.IRQMask
	switch mode := h & apMask; mode {
	case apFull:
		if len(src) < 2 {
			return PartialState{}, nil, fmt.Errorf("amba: unpack: truncated address phase")
		}
		p.HasAP = true
		p.AP = unpackCtrl(uint32(src[1]))
		p.AP.Addr = Addr(src[0])
		src = src[2:]
	case apHold, apNext:
		if prev == nil || !prev.HasAP {
			return PartialState{}, nil, fmt.Errorf("amba: unpack: address phase refers to a missing context")
		}
		p.HasAP = true
		p.AP = prev.AP
		if mode == apNext {
			p.AP = SeqSuccessor(prev.AP)
		}
	}
	if h&flagWD != 0 {
		if len(src) < 1 {
			return PartialState{}, nil, fmt.Errorf("amba: unpack: truncated write data")
		}
		p.HasWData = true
		p.WData = src[0]
		src = src[1:]
	}
	if h&flagRP != 0 {
		p.HasReply = true
		p.Reply.Ready = h&flagReady != 0
		p.Reply.Resp = Resp((h >> respShift) & 0x3)
		if h&flagRData != 0 {
			if len(src) < 1 {
				return PartialState{}, nil, fmt.Errorf("amba: unpack: truncated read data")
			}
			p.Reply.RData = src[0]
			src = src[1:]
		}
	} else if h&(flagReady|0x3<<respShift|flagRData) != 0 {
		return PartialState{}, nil, fmt.Errorf("amba: unpack: reply bits without a reply")
	}
	if h&flagSP != 0 {
		if len(src) < 1 {
			return PartialState{}, nil, fmt.Errorf("amba: unpack: truncated split word")
		}
		sw := uint32(src[0])
		p.SplitMask = (sw >> 8) & 0xff
		p.Split = sw & 0xff & p.SplitMask
		src = src[1:]
	}
	return p, src, nil
}
