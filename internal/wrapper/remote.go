package wrapper

import (
	"fmt"

	"repro/internal/bpl"
	"repro/internal/meta"
	"repro/internal/server"
	"repro/internal/tools"
	"repro/internal/wire"
)

// Remote is a wrapper session whose meta-database lives across the network
// — the deployment of Figure 1, where wrapper programs run on designers'
// machines and talk to the DAMOCLES project server via postEvent messages.
// The tool suite (the design data itself) stays local to the wrapper; only
// tracking information crosses the wire.
type Remote struct {
	ops
	Client *server.Client
}

// NewRemote binds a connected client and a local tool suite.  A client
// from server.DialTimeout makes every wrapper operation fail a hung server
// fast (as server.ErrTimeout) instead of blocking a tool invocation.
func NewRemote(c *server.Client, suite *tools.Suite) *Remote {
	return &Remote{ops: ops{t: clientTracker{c}, Suite: suite}, Client: c}
}

// clientTracker tracks through a project server: each call is one request.
type clientTracker struct{ c *server.Client }

func (t clientTracker) create(block, view string) (meta.Key, error) {
	return t.c.Create(block, view)
}

func (t clientTracker) link(class meta.LinkClass, from, to meta.Key) error {
	return t.c.Link(class.String(), from, to)
}

func (t clientTracker) post(event string, dir bpl.Direction, target meta.Key, args ...string) error {
	return t.c.PostEvent(event, dir.String(), target, args...)
}

func (t clientTracker) prop(k meta.Key, name string) (string, bool, error) {
	return t.c.Prop(k, name)
}

// CheckinHierarchy posts the ckin events for a whole set of OIDs — a
// designer promoting an assembled hierarchy — in a single BATCH
// round-trip.  The server posts the items one by one and drains once: the
// invalidation waves of sibling subtrees are processed in FIFO order by that
// one drain, instead of paying one network round-trip and one drain per
// OID.
func (r *Remote) CheckinHierarchy(keys []meta.Key) error {
	if len(keys) == 0 {
		return nil
	}
	items := make([]wire.BatchItem, len(keys))
	for i, k := range keys {
		items[i] = wire.BatchItem{Event: "ckin", Dir: "down", OID: k.String()}
	}
	posted, err := r.Client.PostBatch(items)
	if err != nil {
		return err
	}
	if posted != len(keys) {
		return fmt.Errorf("wrapper: hierarchy check-in: %d/%d events accepted", posted, len(keys))
	}
	return nil
}
