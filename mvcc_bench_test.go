package repro

// MVCC benchmarks: reader latency while writers keep committing.  The
// pre-MVCC read paths gated on the writers' shard locks (REPORT rows) or
// on every shard lock at once (snapshot collection); with LSN-keyed read
// views both are lock-free, so reader latency under write load should sit
// near the idle-database baseline instead of scaling with writer activity.
//
// Each iteration's writes are counted, not timed: every writer makes
// writesPerOp checkins while the measured op runs, yielding between them,
// and the iteration ends when the op and all the writes have.  So B/op is
// the op's bytes plus a fixed number of writes', whatever the speed of
// either, and on the single-core CI runner the writers interleave with the
// reader instead of starving it.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"repro/internal/meta"
	"repro/internal/state"
)

// writesPerOp is each writer's share of one iteration.
const writesPerOp = 4

// benchWriteDB builds a project with n blocks and starts that many
// writers over them.
func benchWriteDB(b *testing.B, n, writers int) (*Project, *writerSet) {
	b.Helper()
	proj := mustProject(b, EDTCExample)
	for i := 0; i < n; i++ {
		if _, err := proj.Engine.CreateOID(fmt.Sprintf("blk%04d", i), "schematic", "bench"); err != nil {
			b.Fatal(err)
		}
	}
	if err := proj.Engine.Drain(); err != nil {
		b.Fatal(err)
	}
	return proj, startWriters(proj, n, writers)
}

// writerSet is writer goroutines over the schematics of a project's blocks
// blk0000 … blk<n-1>.
type writerSet struct {
	start        []chan struct{}
	done, exited sync.WaitGroup
}

// startWriters starts that many writers, each idle until run hands it its
// share of an iteration.
func startWriters(proj *Project, n, writers int) *writerSet {
	ws := &writerSet{start: make([]chan struct{}, writers)}
	for w := range ws.start {
		ws.start[w] = make(chan struct{})
		ws.exited.Add(1)
		go func(w int) {
			defer ws.exited.Done()
			i := 0
			for range ws.start[w] {
				for range writesPerOp {
					k, err := proj.DB.Head().Latest(fmt.Sprintf("blk%04d", (w*31+i)%n), "schematic")
					if err == nil {
						_ = proj.DB.SetProp(k, "sim_result", strconv.Itoa(i))
					}
					i++
					runtime.Gosched()
				}
				ws.done.Done()
			}
		}(w)
	}
	return ws
}

// run runs op while each writer makes writesPerOp property writes, and
// returns when all of them are done.
func (ws *writerSet) run(op func()) {
	ws.done.Add(len(ws.start))
	for _, c := range ws.start {
		c <- struct{}{}
	}
	op()
	ws.done.Wait()
}

// stop ends the writers and waits for them to exit.
func (ws *writerSet) stop() {
	for _, c := range ws.start {
		close(c)
	}
	ws.exited.Wait()
}

// BenchmarkReportUnderWrites measures full-REPORT latency (the streaming
// sorted form the wire verbs use) on an idle database and under four
// concurrent writers.  With MVCC views the two should be close; the old
// per-row shard-locked path degraded with writer activity.
func BenchmarkReportUnderWrites(b *testing.B) {
	const blocks = 500
	for _, writers := range []int{0, 4} {
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			proj, ws := benchWriteDB(b, blocks, writers)
			defer ws.stop()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ws.run(func() {
					rows := 0
					v := proj.DB.ReadView()
					state.StreamSortedView(v, proj.Blueprint, func(*state.OIDState) bool {
						rows++
						return true
					})
					v.Close()
					if rows != blocks {
						b.Fatal(rows)
					}
				})
			}
		})
	}
}

// BenchmarkSnapshotUnderLoad measures whole-database snapshot collection
// (the journal's checkpoint) on an idle database and under four concurrent
// writers.  The pre-MVCC path held every shard read lock for the
// collection phase; the view path holds none.
func BenchmarkSnapshotUnderLoad(b *testing.B) {
	const blocks = 500
	for _, writers := range []int{0, 4} {
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			proj, ws := benchWriteDB(b, blocks, writers)
			defer ws.stop()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ws.run(func() {
					v := proj.DB.ReadView()
					if _, err := checkpointBytes(v); err != nil {
						b.Fatal(err)
					}
					v.Close()
				})
			}
		})
	}
}

// checkpointBytes writes v's checkpoint the way the journal's snapshot
// loop does, into nothing: each record spelled, checksummed and framed into
// one 64 KiB buffer, emptied whenever it is half full.  It returns the
// checkpoint's size.
func checkpointBytes(v *meta.View) (int, error) {
	n := 0
	buf := make([]byte, 0, 64<<10)
	payload := make([]byte, 0, 512)
	err := v.Checkpoint(func(head meta.Record, args []byte) error {
		payload = strconv.AppendInt(payload[:0], head.LSN, 10)
		payload = strconv.AppendInt(append(payload, ' '), head.Seq, 10)
		payload = append(append(append(payload, ' '), head.Op...), args...)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
		buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, castagnoli))
		if buf = append(buf, payload...); len(buf) >= 32<<10 {
			n, buf = n+len(buf), buf[:0]
		}
		return nil
	})
	return n + len(buf), err
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// benchTreeProject builds the design project of the benchmark in bench/
// through the engine: per tree a depth-3, fanout-3 use-hierarchy of 13
// schematic blocks, each with a derived netlist and layout — 39 OIDs and
// 38 links, with the properties and link annotations the EDTC_example
// blueprint gives them.
func benchTreeProject(b *testing.B, trees int) *Project {
	b.Helper()
	proj := mustProject(b, EDTCExample)
	for tr := 0; tr < trees; tr++ {
		var sch [13]Key
		for i := range sch {
			block := fmt.Sprintf("t%db%d", tr, i)
			for _, view := range []string{"schematic", "netlist", "layout"} {
				k, err := proj.Engine.CreateOID(block, view, "bench")
				if err != nil {
					b.Fatal(err)
				}
				if view == "schematic" {
					sch[i] = k
				} else if _, err := proj.Engine.CreateLink(DeriveLink, sch[i], k); err != nil {
					b.Fatal(err)
				}
			}
			if i > 0 {
				if _, err := proj.Engine.CreateLink(meta.UseLink, sch[(i-1)/3], sch[i]); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	if err := proj.Engine.Drain(); err != nil {
		b.Fatal(err)
	}
	return proj
}

// BenchmarkSnapshotEncode is the cost of one background checkpoint without
// its file: the checkpoint of a 16-tree project (what the benchmark's
// checkin and durable workloads run on) and a 64-tree one (report),
// collected from a pinned view and spelled record by record into one
// buffer.  A journaled primary pays this every SnapshotEvery records,
// behind the write path, so B/op and allocs/op are what it adds to the
// primary's heap; docs/PERF.md has the numbers of the JSON encoders before
// it.
func BenchmarkSnapshotEncode(b *testing.B) {
	for _, trees := range []int{16, 64} {
		b.Run(fmt.Sprintf("trees=%d", trees), func(b *testing.B) {
			v := benchTreeProject(b, trees).DB.ReadView()
			defer v.Close()
			n, err := checkpointBytes(v)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := checkpointBytes(v); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
