package core

import "coemu/internal/predict"

// Hooks for the external core_test package. Its tests load the example
// specs through internal/spec, which imports core, so they cannot live
// in package core itself.

// Step runs one iteration of the cycle loop of a run that ends at
// cycles committed.
func (e *Engine) Step(cycles int64) error { return e.step(cycles) }

// Committed returns the number of target cycles committed so far.
func (e *Engine) Committed() int64 { return e.stats.Committed }

// PredictorSnapshot returns a deep value copy of d's remote predictor
// state, shadows included, for reflect.DeepEqual comparisons.
func (d *Domain) PredictorSnapshot() any { return d.pred.capture() }

// predictorCapture is a deep value copy of a remotePredictor's state.
type predictorCapture struct {
	Req, IRQ predict.LastValue
	Trackers []predict.BurstTracker
	Waits    []predict.WaitModel
	Replies  []predict.ReplyModel
	Frame    predFrame
	Saved    predFrame
}

func (p *remotePredictor) capture() predictorCapture {
	c := predictorCapture{Req: p.req, IRQ: p.irq, Frame: p.predFrame, Saved: p.saved}
	for _, t := range p.trackers {
		if t != nil {
			c.Trackers = append(c.Trackers, *t)
		}
	}
	for _, w := range p.waits {
		if w != nil {
			c.Waits = append(c.Waits, *w)
		}
	}
	for _, i := range p.replySlaves {
		c.Replies = append(c.Replies, *p.replies[i])
	}
	return c
}
