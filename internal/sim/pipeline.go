package sim

// The decode loop of streamed replay and its block-parallel fan-out.
//
// The source is opened exactly once and runPipeline, on the calling
// goroutine, iterates the stream and decodes each block once. With one
// shard the decoder replays the block itself. With K > 1 it
// deep-copies each block into a refcounted sharedBlock drawn from a
// small free list and fans it out to every shard worker's bounded
// channel. The last worker to finish a block returns it to the free
// list, so at most pipelineDepth blocks are ever in flight regardless
// of trace size — the memory ceiling is independent of the file.
//
// The decoder applies the block-skip test (stream.go package comment)
// against the member pages of the *full* session set, kept by a
// full-range streamWorker. Every shard's member-page set is a subset
// of the full set's — membership over [lo, hi) ⊆ membership over the
// whole set — so a block whose summary cannot intersect the full set's
// pages cannot intersect any shard's either: eliding DecodeWrites at
// the decoder is sound for all workers at once. Workers still re-run
// the test against their own narrower sets, so per-shard skips are
// preserved exactly.

import (
	"strconv"
	"sync"
	"sync/atomic"

	"edb/internal/obsv"
	"edb/internal/sessions"
	"edb/internal/trace"
)

// pipelineDepth is the free-list size: the number of decoded blocks
// that may be in flight at once. Deep enough to keep workers busy
// while the decoder reads ahead, shallow enough that peak memory stays
// a few block-buffers regardless of trace size.
const pipelineDepth = 8

// sharedBlock is one decoded block fanned out to all shard workers.
// refs counts workers still replaying it; the worker that drops it to
// zero returns the block to the free list for reuse.
type sharedBlock struct {
	sum  trace.BlockSummary
	blk  trace.Block
	refs atomic.Int32
}

// copyFrom deep-copies the stream's current block, reusing this
// block's column slices. The stream's own buffers are overwritten by
// the next Next, so workers must never alias them.
func (sb *sharedBlock) copyFrom(sum *trace.BlockSummary, src *trace.Block) {
	sb.sum = *sum
	b := &sb.blk
	b.NEvents, b.NWrites = src.NEvents, src.NWrites
	b.IsWrite = append(b.IsWrite[:0], src.IsWrite...)
	b.IRKind = append(b.IRKind[:0], src.IRKind...)
	b.IRObj = append(b.IRObj[:0], src.IRObj...)
	b.IRBA = append(b.IRBA[:0], src.IRBA...)
	b.IREA = append(b.IREA[:0], src.IREA...)
	b.WritesDecoded = src.WritesDecoded
	if src.WritesDecoded {
		b.WrBA = append(b.WrBA[:0], src.WrBA...)
		b.WrEA = append(b.WrEA[:0], src.WrEA...)
		b.WrPC = append(b.WrPC[:0], src.WrPC...)
	} else {
		b.WrBA, b.WrEA, b.WrPC = b.WrBA[:0], b.WrEA[:0], b.WrPC[:0]
	}
}

// consume replays one shared block for this worker's sessions,
// returning 1 if the write columns were skipped (either by this
// worker's own test or already by the decoder).
func (w *streamWorker) consume(sb *sharedBlock) int {
	blk := &sb.blk
	// A block whose write columns the decoder skipped against the full
	// session set — a superset of this worker's member pages — fails
	// this worker's own test too, so !WritesDecoded only short-cuts a
	// test whose answer is known.
	if w.skips(&sb.sum, blk) || !blk.WritesDecoded {
		w.replayIROnly(blk)
		return 1
	}
	w.replayBlock(blk)
	return 0
}

// shardSpan opens the span of the stream worker replaying sessions
// [lo, hi). It is started before the worker consumes its first block,
// so it covers the worker's whole replay.
func shardSpan(obs *obsv.Tracer, program string, lo, hi int32) obsv.Span {
	sp := obs.StartSpan("replay-stream-shard")
	if obs != nil {
		sp.Attr("program", program)
		sp.Attr("sessions", strconv.Itoa(int(lo))+".."+strconv.Itoa(int(hi)))
	}
	return sp
}

// fanOut is the multi-shard half of the pipeline: the free list of
// shared blocks and one bounded feed channel per shard worker.
type fanOut struct {
	free  chan *sharedBlock
	feeds []chan *sharedBlock
	wg    sync.WaitGroup
}

// startShards starts `shards` workers, each replaying a contiguous
// session range of out.PerSession from its feed channel.
func startShards(set *sessions.Set, shards int, skip bool, obs *obsv.Tracer, out *Output) *fanOut {
	n := len(set.Sessions)
	f := &fanOut{
		free:  make(chan *sharedBlock, pipelineDepth),
		feeds: make([]chan *sharedBlock, shards),
	}
	for i := 0; i < pipelineDepth; i++ {
		f.free <- &sharedBlock{}
	}
	for k := range f.feeds {
		// Even split: the first n%shards shards take one extra
		// session. shards <= n, so every range is non-empty.
		lo := int32(k * n / shards)
		hi := int32((k + 1) * n / shards)
		feed := make(chan *sharedBlock, pipelineDepth)
		f.feeds[k] = feed
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			sp := shardSpan(obs, out.Program, lo, hi)
			w := newStreamWorker(set, lo, hi, out.PerSession[lo:hi], skip)
			skipped := 0
			for sb := range feed {
				skipped += w.consume(sb)
				if sb.refs.Add(-1) == 0 {
					f.free <- sb
				}
			}
			w.settle()
			sp.Int("skipped_blocks", int64(skipped))
			sp.End()
		}()
	}
	return f
}

// send copies the stream's current block into a free shared block and
// hands it to every worker.
func (f *fanOut) send(sum *trace.BlockSummary, blk *trace.Block) {
	sb := <-f.free
	sb.copyFrom(sum, blk)
	sb.refs.Store(int32(len(f.feeds)))
	for _, feed := range f.feeds {
		feed <- sb
	}
}

// wait closes the feeds and waits for every worker to settle.
func (f *fanOut) wait() {
	for _, feed := range f.feeds {
		close(feed)
	}
	f.wg.Wait()
}

// runPipeline is the decode loop of streamed replay: one pass over s
// feeding shards workers, each owning a contiguous session range of
// out.PerSession. The decoder's full-set streamWorker g holds the
// member pages of the global skip test. With one shard g is also the
// only worker: it replays the stream's own block in the decode loop,
// with no copy and no channel. With more, each decoded block is copied
// into a sharedBlock and fanned out to every worker (fanOut).
// Caller closes s and runs finishCounters.
func runPipeline(s *trace.Stream, set *sessions.Set, shards int, skip bool, obs *obsv.Tracer, out *Output) error {
	n := int32(len(set.Sessions))
	g := newStreamWorker(set, 0, n, out.PerSession, skip)
	var f *fanOut
	var gsp obsv.Span
	if shards > 1 {
		f = startShards(set, shards, skip, obs, out)
	} else {
		gsp = shardSpan(obs, out.Program, 0, n)
	}
	dsp := obs.StartSpan("replay-stream-decode")
	dsp.Attr("program", out.Program)
	decodeSkipped := 0
	var err error
	for s.Next() {
		sum := s.Summary()
		var blk *trace.Block
		if blk, err = s.DecodeIR(); err != nil {
			break
		}
		skipWrites := g.skips(sum, blk)
		if skipWrites {
			decodeSkipped++
		} else if err = s.DecodeWrites(); err != nil {
			break
		}
		switch {
		case f != nil:
			f.send(sum, blk)
		case skipWrites:
			g.replayIROnly(blk)
		default:
			g.replayBlock(blk)
		}
	}
	if err == nil {
		err = s.Err()
	}
	dsp.Int("blocks", int64(s.NumBlocks))
	dsp.Int("skipped_write_columns", int64(decodeSkipped))
	dsp.End()
	if f != nil {
		f.wait()
		return err
	}
	g.settle()
	gsp.Int("skipped_blocks", int64(decodeSkipped))
	gsp.End()
	return err
}
