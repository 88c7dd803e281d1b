// Command damocles runs the DAMOCLES project server: it loads a BluePrint
// policy file and the project's meta-database, listens for wrapper
// connections, and processes design events (Figure 1 of the paper).
//
// Usage:
//
//	damocles -journal dir [-addr host:port] [-blueprint file] [-fsync] [-ack n [-ack-timeout d]] [-follow-ping d] [-max-conns n] [-idle-timeout d] [-write-timeout d] [-trace]
//	damocles -follow primary:port -journal dir [-addr host:port] [-blueprint file] [-stall-timeout d] [-follow-ping d]
//	damocles -promote follower:port
//
// With no -blueprint, the EDTC_example policy from section 3.4 of the
// paper is loaded.  The database lives in the -journal directory, an
// append-only record log with periodic checkpoints: every acknowledged
// mutation is handed to the operating system before its response, so a
// crashed process (even SIGKILL) restarts into the exact acknowledged state
// by loading the newest checkpoint and replaying the record tail.
// Surviving an OS crash or power loss additionally needs -fsync, which
// forces every commit to stable storage at a per-request latency cost.  The
// server is also a replication primary: followers attach with the FOLLOW
// verb.  A directory of the older on-disk generation (JSON snapshots,
// version 1 segments) is refused; the `dquery upgrade` of commit bbe314f
// converts it.
//
// With -ack n, a primary additionally holds each write's acknowledgement
// until n follower watermarks cover its LSN; a write that cannot gather
// its quorum within -ack-timeout degrades to an explicit "quorum-timeout"
// error (the write is committed locally, never silently lost).
//
// The overload flags harden the serving plane: -max-conns sheds excess
// connections with an explicit "overloaded" error, -idle-timeout closes
// connections whose next request never arrives, and -write-timeout closes
// clients too slow to consume their responses — each misbehaving client
// costs exactly its own connection, never the node.  If the journal disk
// fails (ENOSPC that compaction cannot fix, a failed fsync), the node
// flips to an explicit degraded state: writes are refused with a
// journal-io error, reads keep serving, and ROLE reports
// health=degraded — see docs/OPERATIONS.md.
//
// Replication streams carry a liveness contract: a serving node pings
// idle FOLLOW streams every -follow-ping (so silence is never healthy),
// and a follower declares a stream that stays silent past -stall-timeout
// dead — it tears the connection down, counts a stall, reconnects with
// backoff, and meanwhile ROLE reports staleness=<ms>, the wall-clock age
// of its last upstream freshness evidence.  This is what turns a
// half-open TCP link after a partition from an invisible hazard into a
// bounded, observable event; see docs/REPLICATION.md.
//
// With -follow, the process runs as a replication follower instead: it
// mirrors the primary's record stream into its own -journal directory
// (resuming from the persisted applied position across restarts, even
// after SIGKILL) and serves the read verbs — REPORT, GAP, STATE, LSN,
// ROLE — from the replicated database while refusing writes.  A follower
// also serves FOLLOW from its own journal, so followers chain: a
// downstream replica may point at any node that shares its history.  The
// PROMOTE verb (or damocles -promote, which sends it) flips a follower
// into a full primary under a bumped election term; the deposed primary's
// divergent tail is then fenced off by term checks.  See
// docs/REPLICATION.md and docs/FAILOVER.md.
//
// On SIGINT/SIGTERM both modes shut down gracefully — the journal is
// flushed and committed (the follower's applied marker with it) before
// exit; a second signal force-exits without the clean shutdown.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/bpl"
	"repro/internal/engine"
	"repro/internal/journal"
	"repro/internal/meta"
	"repro/internal/replica"
	"repro/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("damocles: ")
	addr := flag.String("addr", "127.0.0.1:7495", "listen address")
	bpFile := flag.String("blueprint", "", "BluePrint policy file (default: built-in EDTC example)")
	jdir := flag.String("journal", "", "journal directory: the project's append-only log and checkpoints (required)")
	fsync := flag.Bool("fsync", false, "fsync every commit (survive OS crashes, not just process crashes)")
	follow := flag.String("follow", "", "run as a read-only replication follower of this primary address")
	promote := flag.String("promote", "", "promote the read-only follower at this address to primary, then exit")
	ack := flag.Int("ack", 0, "hold each write until this many follower watermarks cover it (0: no quorum gate)")
	ackTimeout := flag.Duration("ack-timeout", 5*time.Second, "with -ack, degrade to an explicit quorum-timeout error after this long")
	stallTimeout := flag.Duration("stall-timeout", replica.DefaultStallTimeout, "with -follow, declare a silent replication stream dead after this long, count a stall, and reconnect (0: never — the legacy unbounded read)")
	followPing := flag.Duration("follow-ping", server.DefaultPingInterval, "liveness ping cadence on idle FOLLOW streams this node serves (0: silent idle)")
	maxConns := flag.Int("max-conns", 0, "shed connections past this count with an explicit overloaded error (0: unlimited)")
	idleTimeout := flag.Duration("idle-timeout", 0, "close a connection whose next request does not arrive in time (0: never)")
	writeTimeout := flag.Duration("write-timeout", 0, "close a connection that stalls a response write this long (0: never)")
	trace := flag.Bool("trace", false, "log engine trace to stderr")
	flag.Parse()

	limits := server.Limits{MaxConns: *maxConns, IdleTimeout: *idleTimeout, WriteTimeout: *writeTimeout}
	if *promote != "" {
		if err := runPromote(*promote); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *jdir == "" {
		log.Fatal("-journal DIR is required: the project lives in its journal directory")
	}
	bp, err := bpl.LoadBlueprint(*bpFile)
	if err != nil {
		log.Fatal(err)
	}
	var engOpts []engine.Option
	if *trace {
		engOpts = append(engOpts, engine.WithTracer(logTracer{}))
	}
	if *follow != "" {
		err = runFollower(*addr, *jdir, *follow, bp, engOpts, *fsync, *ack, *ackTimeout, *stallTimeout, *followPing, limits)
	} else {
		err = run(*addr, *jdir, bp, engOpts, *fsync, *ack, *ackTimeout, *followPing, limits)
	}
	if err != nil {
		log.Fatal(err)
	}
}

// runPromote is the one-shot failover client: send PROMOTE to a follower
// and report the new term.
func runPromote(addr string) error {
	c, err := server.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	term, lsn, err := c.Promote()
	if err != nil {
		return err
	}
	log.Printf("promoted %s: term %d, bump record at lsn %d", addr, term, lsn)
	return nil
}

// watchSignals relays the first SIGINT/SIGTERM on the returned channel
// and force-exits the process on a second — the escape hatch when a
// graceful shutdown wedges.
func watchSignals() <-chan struct{} {
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	ch := make(chan struct{})
	go func() {
		<-sig
		close(ch)
		<-sig
		log.SetOutput(os.Stderr)
		log.Print("second signal: exiting without a clean shutdown")
		os.Exit(1)
	}()
	return ch
}

// runFollower mirrors a primary's journal stream into jdir and serves the
// read verbs from the replicated database.  The follower also serves
// FOLLOW from its own journal (follower chaining) and accepts PROMOTE.
func runFollower(addr, jdir, primary string, bp *bpl.Blueprint, engOpts []engine.Option, fsync bool, ack int, ackTimeout, stall, ping time.Duration, limits server.Limits) error {
	fol, err := replica.Start(jdir, primary, journal.Options{Fsync: fsync},
		replica.WithStallTimeout(stall))
	if err != nil {
		return err
	}
	log.Printf("following %s from applied lsn %d: %+v", primary, fol.AppliedLSN(), stats(fol.DB()))
	eng, err := engine.New(fol.DB(), bp, engOpts...)
	if err != nil {
		fol.Close()
		return err
	}
	// The promotion hook is built here because the daemon owns the
	// replication plumbing: stop the apply loop, bump the term (the
	// journal's term-bump record is the atomic hinge — a SIGKILL before
	// its commit restarts as a follower, after it as a primary), and hand
	// the now-primary journal to the server.  The engine needs no hand-off:
	// the promotion attached the journal to the database it journals through.
	hook := func() (server.Promotion, error) {
		term, lsn, err := fol.Promote()
		if err != nil {
			return server.Promotion{}, err
		}
		log.Printf("promoted: term %d, bump record at lsn %d", term, lsn)
		return server.Promotion{Journal: fol.Writer(), Term: term, LSN: lsn}, nil
	}
	srv := server.New(eng,
		// Read-only, and chaining: FOLLOW streams the follower's own
		// journal, whose tail never passes the local commit watermark, so a
		// downstream replica can never get ahead of this node's applied
		// position.  Its idle streams carry the cadence it expects upstream.
		server.WithReadOnly(fol),
		server.WithFollowPing(ping),
		server.WithPromote(hook),
		// Dormant while read-only; gates writes after a promotion.
		server.WithQuorum(ack, ackTimeout),
		server.WithLimits(limits))
	bound, err := srv.Listen(addr)
	if err != nil {
		fol.Close()
		return err
	}
	// Before the line a supervisor waits for: a SIGTERM sent on seeing it
	// must find the handler installed.
	sig := watchSignals()
	log.Printf("replica of %s serving on %s", primary, bound)

	promoted := false
	select {
	case <-sig:
		log.Printf("shutting down")
	case <-fol.Done():
		if !fol.Promoted() {
			// The loop only stops on its own for a terminal error (gap,
			// refusal, divergent history); dying loudly beats serving
			// ever-staler reads that look healthy.
			err := fol.Err()
			srv.Close()
			fol.Close()
			if err == nil {
				err = fmt.Errorf("replication loop stopped")
			}
			return fmt.Errorf("replication failed at applied lsn %d: %w", fol.AppliedLSN(), err)
		}
		// Promotion flipped this process into a primary; keep serving
		// under the new role until a signal arrives.
		promoted = true
		<-sig
		log.Printf("shutting down")
	}
	if err := srv.Close(); err != nil {
		if promoted {
			fol.Writer().Abort()
		} else {
			fol.Close()
		}
		return err
	}
	if promoted {
		// The journal moved to the primary plane at promotion; close it
		// directly (Follower.Close must not touch it any more).
		jw := fol.Writer()
		if err := jw.Close(); err != nil {
			return err
		}
		log.Printf("journal closed at lsn %d (term %d): %+v", jw.LastLSN(), jw.Term(), stats(fol.DB()))
		return nil
	}
	if err := fol.Close(); err != nil {
		return err
	}
	st := fol.Stats()
	log.Printf("follower closed at applied lsn %d (connects=%d bootstraps=%d records=%d acks=%d stalls=%d): %+v",
		fol.AppliedLSN(), st.Connects, st.Bootstraps, st.Records, st.Acks, st.Stalls, stats(fol.DB()))
	return nil
}

func run(addr, jdir string, bp *bpl.Blueprint, engOpts []engine.Option, fsync bool, ack int, ackTimeout, ping time.Duration, limits server.Limits) error {
	for _, d := range bpl.Analyze(bp) {
		log.Printf("blueprint %s: %s", bp.Name, d)
	}

	jw, db, err := journal.Open(jdir, journal.Options{Fsync: fsync})
	if err != nil {
		return err
	}
	log.Printf("recovered journal %s at lsn %d (term %d): %+v", jdir, jw.LastLSN(), jw.Term(), stats(db))

	eng, err := engine.New(db, bp, engOpts...)
	if err != nil {
		return err
	}
	srv := server.New(eng,
		server.WithLimits(limits),
		server.WithFollowPing(ping),
		// The server is a replication primary for free: the FOLLOW verb
		// tails the same log that makes it durable.
		server.WithJournal(jw),
		server.WithQuorum(ack, ackTimeout))
	bound, err := srv.Listen(addr)
	if err != nil {
		return err
	}
	sig := watchSignals() // before the line a supervisor waits for
	log.Printf("project %s serving on %s", bp.Name, bound)

	<-sig
	log.Printf("shutting down")
	if err := srv.Close(); err != nil {
		return err
	}
	if err := jw.Close(); err != nil {
		return err
	}
	log.Printf("journal closed at lsn %d: %+v", jw.LastLSN(), stats(db))
	return nil
}

// logTracer streams engine trace entries to the log.
type logTracer struct{}

func (logTracer) Trace(e engine.TraceEntry) { log.Print(e.String()) }

// stats counts db's objects at a view pinned for the call.
func stats(db *meta.DB) meta.Stats {
	v := db.ReadView()
	defer v.Close()
	return v.Stats()
}
