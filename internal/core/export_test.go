package core

// Hooks for the external core_test package. Its tests load the example
// specs through internal/spec, which imports core, so they cannot live
// in package core itself.

// Step runs one iteration of the cycle loop of a run that ends at
// cycles committed.
func (e *Engine) Step(cycles int64) error { return e.step(cycles) }

// Committed returns the number of target cycles committed so far.
func (e *Engine) Committed() int64 { return e.stats.Committed }

// PredictorSnapshot returns a fresh capture of d's remote predictor.
func (d *Domain) PredictorSnapshot() any { return d.pred.SaveInto(nil) }
