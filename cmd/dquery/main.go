// Command dquery queries project state from a running DAMOCLES server —
// the designer-side "what still needs to be modified before reaching a
// planned state" tool.
//
// Usage:
//
//	dquery [-addr host:port] state <block,view,version>
//	dquery [-addr host:port] report
//	dquery [-addr host:port] gap
//	dquery [-addr host:port] stats
//	dquery [-addr host:port] blueprint
//	dquery [-addr host:port] snapshot <name> <root-oid|*>
//	dquery [-addr host:port] dot <flow|state>
//	dquery [-addr host:port] links <block,view,version>
//	dquery [-addr host:port] query [<lsn>] <reach|deps|equiv> <oid> [use|all|type:t1,t2,...]
//	dquery [-addr host:port] query [<lsn>] resolve <configuration>
//	dquery upgrade <dir>
//
// query runs a graph query pinned at a journal LSN (omitted or 0 = the
// server's current state).  A read-only follower serves it too, first
// waiting until it has applied the LSN — the output at a given position is
// byte-identical on every node that has reached it.
//
// With -journal, dquery needs no running server: it recovers the database
// from the journal directory read-only (newest snapshot plus record tail,
// without repairing the files, so it is safe against a live server's
// directory) and answers the query from the recovered state.  Readiness
// evaluation then uses the blueprint named by -blueprint, or the built-in
// EDTC example.
//
// With -follow, dquery attaches to a journaled server's replication
// stream and prints every record as it commits — "tail -f" for the
// project's mutation history:
//
//	dquery -addr host:port -follow [from-lsn]
//
// upgrade converts, once and offline, a journal directory an older build
// wrote, which damocles and -journal refuse (journal.Upgrade).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"

	"repro/internal/bpl"
	"repro/internal/cli"
	"repro/internal/engine"
	"repro/internal/journal"
	"repro/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dquery: ")
	addr := flag.String("addr", "127.0.0.1:7495", "project server address")
	jdir := flag.String("journal", "", "answer offline from this journal directory instead of a server")
	bpFile := flag.String("blueprint", "", "policy file for offline state evaluation (default: built-in EDTC example)")
	follow := flag.Bool("follow", false, "stream the server's journal records to stdout (optional arg: start after this lsn)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: dquery [-addr host:port | -journal dir] <state|report|gap|stats|blueprint|snapshot|dot|links|query> [args]\n")
		fmt.Fprintf(os.Stderr, "       dquery [-addr host:port] -follow [from-lsn]\n")
		fmt.Fprintf(os.Stderr, "       dquery upgrade <dir>\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.Arg(0) == "upgrade" {
		if flag.NArg() != 2 {
			log.Fatal("upgrade wants one journal directory")
		}
		converted, err := journal.Upgrade(flag.Arg(1), journal.Options{})
		fmt.Printf("%s: converted %q\n", flag.Arg(1), converted)
		if err != nil {
			log.Fatal(err)
		}
		return
	}
	if *follow {
		if *jdir != "" {
			log.Fatal("-follow streams from a server (-addr); it cannot tail an offline -journal directory")
		}
		if err := followStream(*addr, flag.Args()); err != nil {
			log.Fatal(err)
		}
		return
	}
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}
	c, cleanup, err := connect(*addr, *jdir, *bpFile)
	if err != nil {
		log.Fatal(err)
	}
	defer cleanup()
	if err := cli.DQuery(os.Stdout, c, flag.Args()); err != nil {
		log.Fatal(err)
	}
}

// followStream prints a server's replication stream until the connection
// or the process ends.
func followStream(addr string, args []string) error {
	after := int64(0)
	if len(args) > 1 {
		return fmt.Errorf("-follow takes at most one <from-lsn> argument")
	}
	if len(args) == 1 {
		n, err := strconv.ParseInt(args[0], 10, 64)
		if err != nil || n < 0 {
			return fmt.Errorf("-follow: bad from-lsn %q", args[0])
		}
		after = n
	}
	c, err := server.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Hangup()
	return c.FollowFrom(after, 0, func(ev journal.FollowEvent) error {
		switch ev.Kind {
		case journal.FollowRecord:
			fmt.Printf("record %s\n", ev.Payload())
		case journal.FollowSnapshot:
			fmt.Printf("snapshot lsn=%d (%d bytes)\n", ev.SnapLSN, len(ev.Snapshot))
		case journal.FollowMark:
			fmt.Printf("watermark %d\n", ev.Watermark)
		}
		return nil
	})
}

// connect yields a client against the requested backend: the addressed
// server, or an in-process server over a read-only journal recovery — the
// exact code path a networked query takes, on a loopback listener.
func connect(addr, jdir, bpFile string) (*server.Client, func(), error) {
	if jdir == "" {
		c, err := server.Dial(addr)
		if err != nil {
			return nil, nil, err
		}
		return c, func() { c.Close() }, nil
	}
	bp, err := bpl.LoadBlueprint(bpFile)
	if err != nil {
		return nil, nil, err
	}
	db, lsn, err := journal.Replay(jdir, 0)
	if err != nil {
		return nil, nil, err
	}
	v := db.ReadView()
	log.Printf("replayed %s to lsn %d: %+v", jdir, lsn, v.Stats())
	v.Close()
	eng, err := engine.New(db, bp)
	if err != nil {
		return nil, nil, err
	}
	srv := server.New(eng)
	bound, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	c, err := server.Dial(bound)
	if err != nil {
		srv.Close()
		return nil, nil, err
	}
	return c, func() { c.Close(); srv.Close() }, nil
}
