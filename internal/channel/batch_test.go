package channel

import (
	"testing"

	"coemu/internal/device"
	"coemu/internal/vclock"
)

// TestAccountNMatchesSends pins the batching contract: AccountN leaves
// the ledger and every channel statistic bit-identical to n single
// Account calls of the same payload size.
func TestAccountNMatchesSends(t *testing.T) {
	var oneLedger, batchLedger vclock.Ledger
	one := New(device.IPROVE(), &oneLedger)
	batch := New(device.IPROVE(), &batchLedger)

	const words, n = 5, 9
	for i := 0; i < n; i++ {
		one.Account(SimToAcc, words)
	}
	batch.AccountN(SimToAcc, words, n)

	if oneLedger != batchLedger {
		t.Fatalf("ledger diverged: account %v, accountN %v", oneLedger.String(), batchLedger.String())
	}
	if one.Stats() != batch.Stats() {
		t.Fatalf("stats diverged:\naccount:  %+v\naccountN: %+v", one.Stats(), batch.Stats())
	}
}

// TestAccountZeroLengthPaysStartup pins the doorbell semantics: an
// empty access still pays the startup overhead.
func TestAccountZeroLengthPaysStartup(t *testing.T) {
	var l vclock.Ledger
	c := New(device.IPROVE(), &l)
	c.Account(AccToSim, 0)
	if l.Get(vclock.Channel) < c.Stack().Startup() {
		t.Fatalf("zero-length access charged %v, want at least startup %v",
			l.Get(vclock.Channel), c.Stack().Startup())
	}
	if c.Stats().Accesses[AccToSim] != 1 {
		t.Fatal("access not counted")
	}
}
