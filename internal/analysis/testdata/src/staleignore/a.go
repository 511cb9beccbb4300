// Package staleignore is the golden fixture for the stale-directive
// sweep: a directive that suppresses a real finding is consumed, one on
// a clean line is stale, and one naming an analyzer that no longer
// exists under that name (rename rot, a removed analyzer, a comma list)
// silences nothing and never will.
package staleignore

type Machine struct{}

type Ctx interface {
	Pid() int
	Send(dst, tag int, payload []byte) error
	Sync(scope *Machine, label string) error
}

func consumedDirective(c Ctx) error {
	if err := c.Sync(nil, "step"); err != nil {
		return err
	}
	return c.Send(1, 0, []byte("x")) //hbspk:ignore commgraph -- deliberate: flushed by the caller's next super-step
}

func staleDirective(c Ctx) error {
	//hbspk:ignore commgraph // want `stale //hbspk:ignore commgraph: the directive suppresses nothing on its line`
	return c.Sync(nil, "clean")
}

func renameRot(c Ctx) error {
	if err := c.Sync(nil, "step"); err != nil {
		return err
	}
	// The analyzer was renamed commtopology -> commgraph long ago; the
	// directive cites the dead name, so the finding below it is live.
	return c.Send(1, 0, []byte("y")) //hbspk:ignore commtopology // want `unmatched send` `//hbspk:ignore commtopology names no analyzer \(renamed or removed\?\): the directive silences nothing`
}

// bufreuse was removed with its analyzer: a directive still citing it
// is reported, not honoured.
func removedAnalyzer(c Ctx) error {
	if err := c.Sync(nil, "step"); err != nil {
		return err
	}
	return c.Send(1, 0, []byte("z")) //hbspk:ignore bufreuse // want `unmatched send` `//hbspk:ignore bufreuse names no analyzer`
}

// One directive names one analyzer: a comma list is a single unknown
// name, not two suppressions.
func commaList(c Ctx) error {
	if err := c.Sync(nil, "step"); err != nil {
		return err
	}
	return c.Send(1, 0, []byte("w")) //hbspk:ignore commgraph,pidtaint // want `unmatched send` `//hbspk:ignore commgraph,pidtaint names no analyzer`
}
