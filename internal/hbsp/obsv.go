package hbsp

import "hbspk/internal/obsv"

// spanSource is the seam through which layers above the engines (the
// collective library) reach a run's processor core and clock from a
// Ctx. Both engine Ctx implementations satisfy it; a foreign Ctx (a
// test double) yields no recorder and counts no depth.
type spanSource interface {
	core() *proc
	obsvNow() float64
}

// RecorderOf returns the recorder of the run the Ctx belongs to, or
// nil when observability is off or the Ctx is not an engine's.
func RecorderOf(c Ctx) *obsv.Recorder {
	if s, ok := c.(spanSource); ok {
		return s.core().opt.Obsv
	}
	return nil
}

// Span brackets one collective call at its entry point:
//
//	defer hbsp.Span(c, "gather")(len(local))
//
// Inside the bracket the processor's collective depth is raised, so a
// reorganization that falls due at a global barrier of the call waits
// for the first global barrier outside every collective (DESIGN.md
// §5.7). With a recorder installed the closer also records the call's
// span with the payload size it handled.
func Span(c Ctx, name string) func(bytes int) {
	s, ok := c.(spanSource)
	if !ok {
		return func(int) {}
	}
	p := s.core()
	p.depth++
	rec := p.opt.Obsv
	if rec == nil {
		return func(int) { p.depth-- }
	}
	start := s.obsvNow()
	return func(bytes int) {
		p.depth--
		rec.Collective(name, p.pid, start, s.obsvNow(), int64(bytes))
	}
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
