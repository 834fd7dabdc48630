// Package vclock provides a virtual wall-clock ledger used to account the
// modeled execution time of a co-emulation session.
//
// The co-emulation engine executes both verification domains in a single
// process; physical time spent by the Go process is irrelevant to the
// experiments. Instead, every modeled activity (a simulator cycle, an
// accelerator cycle, a channel access, a state store or restore) charges
// its modeled duration to a Ledger under a Category. The sum of all
// categories is the virtual wall-clock time the real system would have
// taken, which is what the paper's "simulation performance (cycles/sec)"
// metric divides by.
package vclock

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Category identifies one of the cost buckets from the paper's Table 2.
type Category uint8

// Cost categories. They correspond one-to-one to the rows of the paper's
// Table 2: Tsim, Tacc, Tstore, Trestore and Tch.
const (
	// Sim is time spent by the software simulator evaluating target cycles.
	Sim Category = iota
	// Acc is time spent by the hardware accelerator evaluating target cycles.
	Acc
	// Store is time spent storing leader state for possible rollback.
	Store
	// Restore is time spent restoring leader state after a misprediction.
	Restore
	// Channel is time spent on the simulator-accelerator channel,
	// including per-access startup overhead and per-word payload time.
	Channel
	numCategories
)

// String returns the Table 2 row name for the category.
func (c Category) String() string {
	switch c {
	case Sim:
		return "Tsim"
	case Acc:
		return "Tacc"
	case Store:
		return "Tstore"
	case Restore:
		return "Trestore"
	case Channel:
		return "Tch"
	default:
		return fmt.Sprintf("Category(%d)", uint8(c))
	}
}

// Categories lists all valid categories in Table 2 order.
func Categories() []Category {
	return []Category{Sim, Acc, Store, Restore, Channel}
}

// Ledger accumulates modeled time per category. The zero value is an
// empty ledger ready for use. Ledger is not safe for concurrent use.
type Ledger struct {
	buckets [numCategories]time.Duration
	charges [numCategories]int64
}

// Charge adds d of modeled time to category c. Negative durations panic:
// virtual time never runs backwards, and a negative charge always
// indicates a bug in a cost model.
func (l *Ledger) Charge(c Category, d time.Duration) {
	l.ChargeN(c, d, 1)
}

// ChargeN adds n identical charges of d to category c in one call. It
// is the batch counterpart of Charge used by the engine's
// predicted-quiescence fast path: the resulting buckets and charge
// counts are bit-identical to n sequential Charge calls (duration
// arithmetic is exact integer math), at O(1) instead of O(n) cost.
// Non-positive n panics: a zero-cycle batch indicates a bug in the
// caller's batch sizing.
func (l *Ledger) ChargeN(c Category, d time.Duration, n int64) {
	if n <= 0 {
		panic(fmt.Sprintf("vclock: non-positive batch charge count %d to %v", n, c))
	}
	if d < 0 {
		panic(fmt.Sprintf("vclock: negative charge %v to %v", d, c))
	}
	if c >= numCategories {
		panic(fmt.Sprintf("vclock: invalid category %d", c))
	}
	l.buckets[c] += time.Duration(n) * d
	l.charges[c] += n
}

// Get returns the accumulated time in category c.
func (l *Ledger) Get(c Category) time.Duration {
	if c >= numCategories {
		panic(fmt.Sprintf("vclock: invalid category %d", c))
	}
	return l.buckets[c]
}

// Count returns how many individual charges were made to category c.
func (l *Ledger) Count(c Category) int64 {
	if c >= numCategories {
		panic(fmt.Sprintf("vclock: invalid category %d", c))
	}
	return l.charges[c]
}

// Total returns the virtual wall-clock time: the sum over all categories.
// The two domains and the channel are modeled as mutually exclusive in
// time (the paper's model makes the same serialization assumption), so
// the total is a plain sum.
func (l *Ledger) Total() time.Duration {
	var t time.Duration
	for _, b := range l.buckets {
		t += b
	}
	return t
}

// Reset zeroes every bucket.
func (l *Ledger) Reset() {
	*l = Ledger{}
}

// Snapshot returns a copy of the ledger, used to roll cost accounting
// forward through engine checkpoints without aliasing.
func (l *Ledger) Snapshot() Ledger {
	return *l
}

// AddFrom accumulates every bucket of other into l.
func (l *Ledger) AddFrom(other *Ledger) {
	for i := range l.buckets {
		l.buckets[i] += other.buckets[i]
		l.charges[i] += other.charges[i]
	}
}

// PerCycle reports the average modeled time per target cycle for category
// c given that cycles target cycles were committed. It returns 0 when
// cycles is 0.
func (l *Ledger) PerCycle(c Category, cycles int64) time.Duration {
	if cycles <= 0 {
		return 0
	}
	return l.Get(c) / time.Duration(cycles)
}

// CyclesPerSecond converts the ledger into the paper's headline metric:
// committed target cycles divided by total virtual time, in cycles/sec.
func (l *Ledger) CyclesPerSecond(cycles int64) float64 {
	tot := l.Total()
	if tot <= 0 {
		return 0
	}
	return float64(cycles) / tot.Seconds()
}

// String renders the ledger as a compact table, categories in Table 2
// order, for logs and debug output.
func (l *Ledger) String() string {
	var b strings.Builder
	cats := Categories()
	sort.Slice(cats, func(i, j int) bool { return cats[i] < cats[j] })
	for i, c := range cats {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%v", c, l.buckets[c])
	}
	fmt.Fprintf(&b, " total=%v", l.Total())
	return b.String()
}
