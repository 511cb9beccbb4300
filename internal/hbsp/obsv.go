package hbsp

import "hbspk/internal/obsv"

// spanSource is the seam through which layers above the engines (the
// collective library) reach a run's recorder and clock from a Ctx.
// Both engine Ctx implementations satisfy it (the recorder through the
// shared proc); a foreign Ctx (a test double) simply yields no recorder.
type spanSource interface {
	obsvRecorder() *obsv.Recorder
	obsvNow() float64
}

// RecorderOf returns the recorder of the run the Ctx belongs to, or
// nil when observability is off or the Ctx is not an engine's.
func RecorderOf(c Ctx) *obsv.Recorder {
	if s, ok := c.(spanSource); ok {
		return s.obsvRecorder()
	}
	return nil
}

// NowOf returns the Ctx's current time on its engine clock: virtual
// units for the Virtual engine (last barrier exit plus charged work),
// microseconds since run start for the Concurrent engine. Zero for a
// foreign Ctx.
func NowOf(c Ctx) float64 {
	if s, ok := c.(spanSource); ok {
		return s.obsvNow()
	}
	return 0
}

// obsvNow is the processor's local virtual time: the clock staged at
// its last resume plus work charged since.
func (c *vctx) obsvNow() float64 { return c.clock + c.work }

func (c *cctx) obsvNow() float64 { return c.nowMicros() }
