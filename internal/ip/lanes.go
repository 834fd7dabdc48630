// Package ip provides the bus components ("IP blocks") used to populate
// co-emulated SoC designs: traffic-generating bus masters and a family of
// slaves (SRAM, wait-state memory, jittery memory, interrupt peripheral,
// error and retry responders).
//
// Every component is deterministic and snapshotable (implements
// rollback.Component) so it can live in a leader domain and survive
// rollback/roll-forth replay bit-exactly.
package ip

import "coemu/internal/amba"

// AHB transfers narrower than the bus place their bytes on specific byte
// lanes of the 32-bit data bus according to the address's low bits
// (little-endian byte invariant). These helpers implement the lane
// placement shared by the memory slaves and the master-side data checks.

// laneShift returns the bit offset of the lane carrying the first byte
// of a transfer of size s at address a.
func laneShift(a amba.Addr, s amba.Size) uint {
	off := uint(a) & 0x3
	switch s {
	case amba.Size8:
		return 8 * off
	case amba.Size16:
		return 8 * (off &^ 1)
	default:
		return 0
	}
}

// laneMask returns the data-bus mask covering a transfer of size s at
// address a.
func laneMask(a amba.Addr, s amba.Size) amba.Word {
	var m amba.Word
	switch s {
	case amba.Size8:
		m = 0xff
	case amba.Size16:
		m = 0xffff
	default:
		m = 0xffffffff
	}
	return m << laneShift(a, s)
}

// ExtractLanes returns the active lanes of w for a transfer at (a, s),
// with inactive lanes zeroed. The value stays on its lanes (AHB does not
// re-align narrow data onto lane zero).
func ExtractLanes(w amba.Word, a amba.Addr, s amba.Size) amba.Word {
	return w & laneMask(a, s)
}
