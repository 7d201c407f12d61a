package core

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/crypto"
	"repro/internal/exec"
	"repro/internal/trace"
	"repro/internal/wire"
)

// defaultNonDetProvider attaches the primary's wall clock and a random
// seed derived from it (deterministic given the clock, which is itself the
// non-deterministic input being agreed).
func (r *Replica) defaultNonDetProvider() wire.NonDet {
	nd := wire.NonDet{Time: uint64(r.now().UnixNano())}
	seed := crypto.DigestOf([]byte("nondet-seed"), nd.Marshal())
	copy(nd.Rand[:], seed[:])
	return nd
}

// defaultNonDetValidator implements the time-delta check of §2.5: accept
// the primary's timestamp only if it is within MaxTimeDrift of the local
// clock. Replayed pre-prepares with old timestamps fail this check — the
// recovery pitfall the paper analyzes.
func (r *Replica) defaultNonDetValidator(nd wire.NonDet) bool {
	if !r.cfg.Opts.ValidateNonDet {
		return true
	}
	drift := r.now().Sub(time.Unix(0, int64(nd.Time)))
	if drift < 0 {
		drift = -drift
	}
	return drift <= r.cfg.Opts.MaxTimeDrift
}

func nonDetValues(raw []byte) NonDetValues {
	nd, err := wire.UnmarshalNonDet(raw)
	if err != nil {
		return NonDetValues{Time: time.Unix(0, 0)}
	}
	return NonDetValues{Time: time.Unix(0, int64(nd.Time)), Rand: nd.Rand}
}

// execReadOnly serves the read-only optimization (§2.1): execute without
// agreement; the client assembles a 2f+1 quorum of matching replies
// itself. Execution is dispatched to the sharded engine so application
// work — possibly a slow read — never runs on the protocol loop: a keyed
// read runs on its shard, ordered behind any scheduled conflicting write;
// an unkeyed read is an engine barrier. The reply is sealed and sent by
// the shard worker from state snapshotted here, on the loop.
func (r *Replica) execReadOnly(req *wire.Request, client *nodeEntry) {
	if r.sync != nil {
		return // state mid-transfer: results would be garbage
	}
	r.stats.ReadOnlyExec++
	rep := &wire.Reply{
		View:      r.view,
		Timestamp: req.Timestamp,
		ClientID:  req.ClientID,
		Replica:   r.id,
		Flags:     wire.FlagTentative,
	}
	op := req.Op
	nd := NonDetValues{Time: r.now()}
	useMAC := r.cfg.Opts.UseMACs && client.HasSession
	session := client.Session
	addr := client.Addr
	r.exec.SubmitDetached(r.shardKeys(op), func() {
		rep.Result = r.app.Execute(op, nd, true)
		r.sendSealedReply(addr, rep, session, useMAC)
	})
}

// sendSealedReply sends one reply alone, as a reply list of one: encode
// into a pooled writer, seal with the given session material, ship,
// return both buffers to the arena. Safe off the protocol loop (it touches
// only its arguments, immutable replica material and the thread-safe
// connection).
func (r *Replica) sendSealedReply(addr string, rep *wire.Reply, session crypto.SessionKey, useMAC bool) {
	pw := wire.GetWriter(wire.ReplyListHeaderSize + rep.EncodedSize())
	wire.BeginReplyList(pw, 1)
	rep.Encode(pw)
	env := r.sealWithSession(wire.MTReply, pw.Bytes(), session, useMAC)
	r.sendToAddr(addr, env)
	env.ReleaseRaw()
	pw.Free()
}

// sendReply transmits a reply to its client (the cached-retransmission
// path; freshly executed replies ship via sendSpanReplies).
func (r *Replica) sendReply(rep *wire.Reply, client *nodeEntry) {
	if client == nil {
		return
	}
	r.sendSealedReply(client.Addr, rep, client.Session, r.cfg.Opts.UseMACs && client.HasSession)
}

// tryExecute schedules every executable entry in sequence order on the
// execution engine, then reaps the results. An entry is executable when
// committed, or — with tentative execution — as soon as it is prepared
// (§2.1). Execution wedges on a missing big-request body (§2.4) until
// state transfer overtakes the gap.
//
// All executable entries are submitted before anything blocks on them, so
// non-conflicting operations across consecutive batches churn on every
// shard at once. The pass ends by reaping the span in place when it is
// already done, or by handing it to the reaper goroutine and returning to
// the protocol loop — agreement on the next sequence numbers overlaps the
// application work — while checkpoint boundaries (and the other barriers)
// still drain everything first, so the snapshot observes exactly the
// operations up to the boundary: the property that keeps checkpoint
// digests identical across replicas, shard counts and reap paths.
func (r *Replica) tryExecute() {
	if r.sync != nil || r.executing {
		return
	}
	r.executing = true
	defer func() { r.executing = false }()
	for {
		e := r.log[r.lastExec+1]
		if e == nil || e.pp == nil {
			break
		}
		canExec := e.committed || (e.prepared && r.cfg.Opts.TentativeExecution && !r.inViewChange)
		if !canExec {
			break
		}
		if !r.resolveBodies(e) {
			e.missingBody = true
			break // wedged (§2.4)
		}
		e.missingBody = false
		r.submitEntry(e)
		r.lastExec = e.seq
		if e.committed {
			r.advanceCommittedContig()
		}
		if e.seq%r.cfg.Opts.CheckpointInterval == 0 {
			// Reaping waits for every scheduled mutation, so the
			// snapshot observes exactly the operations up to the
			// boundary. Detached reads may still run — they only read
			// the (internally synchronized) region.
			r.reapApplies()
			r.takeCheckpoint(e.seq)
		}
		if r.isPrimary() {
			r.tryPropose() // the congestion window may have room again
		}
	}
	r.finishSpan()
}

// resolveBodies checks that every request body of the batch is available.
func (r *Replica) resolveBodies(e *entry) bool {
	for i := range e.pp.Entries {
		be := &e.pp.Entries[i]
		if be.Full {
			continue
		}
		if _, ok := r.bigBodies[be.Digest]; !ok {
			return false
		}
	}
	return true
}

// pendingApply is one request handed to the execution engine and not yet
// reaped. The shard worker writes result; readers observe it only through
// a happens-before edge — the task's done channel (async reaper) or
// exec.WaitIdle's ordered-completion counter chain (synchronous reap).
//
// Everything the reply needs outside the loop is snapshotted here at
// submission time (client address and session material, the view), so the
// reaper goroutine can seal and send without touching loop-owned state.
type pendingApply struct {
	req       *wire.Request
	e         *entry
	tentative bool
	ndTime    time.Time
	result    []byte
	task      *exec.Task
	// rep is built in place (one object per request; the reply cache
	// retains &rep, and pa with it, for the client window's lifetime).
	rep wire.Reply
	// Client snapshot for off-loop reply sealing.
	addr    string
	session crypto.SessionKey
	useMAC  bool
	// head and next chain the span's applies whose replies leave in one
	// envelope (sendReplyGroup): a signed reply joins the other signed
	// replies to its client in the span, in submission order; a MAC reply
	// is a group of one. head is the group's first apply, nil when the
	// client was unknown at submission (no reply is sent, but the apply
	// still integrates into the reply cache); next is nil on the last.
	head, next *pendingApply
}

// shardKeys asks the application for an operation's conflict keyset. The
// upcall is skipped in the serial configuration, where every operation
// runs in commit order regardless.
func (r *Replica) shardKeys(op []byte) [][]byte {
	if r.sharder == nil || r.exec.Serial() {
		return nil
	}
	return r.sharder.Keys(op)
}

// submitEntry schedules one agreed batch. The loop-side bookkeeping
// (deduplication, pending-request tracking, membership operations) runs
// here in commit order; the application work goes to the engine.
func (r *Replica) submitEntry(e *entry) {
	nd := nonDetValues(e.pp.NonDet)
	tentative := !e.committed
	e.replies = e.replies[:0]
	for i := range e.pp.Entries {
		be := &e.pp.Entries[i]
		var req *wire.Request
		if be.Full {
			req = &be.Req
		} else {
			req = r.bigBodies[be.Digest].req
			r.bigBodies[be.Digest].executedSeq = e.seq
		}
		r.submitRequest(req, nd, tentative, e)
	}
	e.executed = true
	r.emit(trace.Event{Kind: trace.EvBatch, View: e.view, Seq: e.seq, Count: uint64(len(e.pp.Entries)), Tentative: tentative})
}

// submitRequest performs one request's loop-side work and hands the
// application execution to the engine (or, for duplicates, nothing).
func (r *Replica) submitRequest(req *wire.Request, nd NonDetValues, tentative bool, e *entry) {
	r.forgetPending(reqKey{req.ClientID, req.Timestamp})
	if q := r.primaryQueued[req.ClientID]; q != nil {
		delete(q, req.Timestamp)
		if len(q) == 0 {
			delete(r.primaryQueued, req.ClientID)
		}
	}
	if req.System() {
		// Join/Leave mutate protocol-loop state (node table, sessions,
		// pending joins): execute on the loop itself, as a barrier —
		// everything scheduled before must have applied (reaping waits
		// for it).
		r.reapApplies()
		if rep := r.executeSystem(req, nd, tentative, e.seq); rep != nil {
			e.replies = append(e.replies, rep)
		}
		return
	}
	w := r.cfg.ClientWindow()
	cw := r.clientWin(req.ClientID)
	if cw.executed(req.Timestamp, w) {
		return // duplicate within a batch or across batches
	}
	// Mark executed now — later batches must see this timestamp as done —
	// and attach the cached reply when the result is reaped.
	cw.record(req.Timestamp, nil, w)
	pa := &pendingApply{req: req, e: e, tentative: tentative, ndTime: nd.Time}
	pa.rep = wire.Reply{
		View:      r.view,
		Timestamp: req.Timestamp,
		ClientID:  req.ClientID,
		Replica:   r.id,
	}
	if tentative {
		pa.rep.Flags |= wire.FlagTentative
	}
	if client := r.nodes.get(req.ClientID); client != nil {
		pa.addr = client.Addr
		pa.session = client.Session
		pa.useMAC = r.cfg.Opts.UseMACs && client.HasSession
		pa.head = pa
		if !pa.useMAC {
			// A signature costs tens of microseconds, a MAC about one: only
			// signed replies are worth holding back for their siblings.
			if prev := r.replyTails[req.ClientID]; prev != nil {
				prev.next = pa
				pa.head = prev.head
			}
			r.replyTails[req.ClientID] = pa
		}
	}
	op := req.Op
	rec := r.rec
	if rec != nil {
		rec.StampSeq(req.ClientID, req.Timestamp, trace.ExecSchedule, e.seq, e.view)
	}
	pa.task = r.exec.Submit(r.shardKeys(op), func() {
		pa.result = r.app.Execute(op, nd, false)
		if rec != nil {
			// Stamped by the shard worker; the recorder is thread-safe.
			rec.Stamp(pa.rep.ClientID, pa.rep.Timestamp, trace.ExecDone)
		}
	})
	r.applyQueue = append(r.applyQueue, pa)
}

// sendSpanReplies finishes one span's replies in submission order: wait for
// each apply's task, fill in its result, and send every reply group whose
// last apply this is. A MAC reply therefore leaves the moment it is ready;
// a signed one waits for its client's last apply in the span and leaves
// with it, one signature for the lot. Safe off the protocol loop: it
// touches only the submission-time snapshots in applies, immutable replica
// material (id, key pair, options) and the thread-safe connection.
func (r *Replica) sendSpanReplies(applies []*pendingApply) {
	for _, pa := range applies {
		// The task's done channel is the happens-before edge publishing
		// the shard worker's result write (already closed after WaitIdle).
		<-pa.task.Done()
		pa.rep.Result = pa.result
		if pa.head != nil && pa.next == nil {
			r.sendReplyGroup(pa.head)
		}
	}
}

// sendReplyGroup seals and sends the replies chained from head, in order,
// in as few envelopes as MaxBatchBytes — the datagram bound a pre-prepare
// obeys — allows: a list is cut before the reply that would take it past
// the bound, and a reply larger than the bound goes alone. The sealed form
// and payload scratch go back to the arena at once (the cached reply for
// retransmission is the *wire.Reply, not its wire form).
func (r *Replica) sendReplyGroup(head *pendingApply) {
	limit := r.cfg.Opts.MaxBatchBytes
	for first := head; first != nil; {
		n, size := 0, wire.ReplyListHeaderSize
		end := first
		for ; end != nil; end = end.next {
			s := end.rep.EncodedSize()
			if n > 0 && limit > 0 && size+s > limit {
				break
			}
			n++
			size += s
		}
		pw := wire.GetWriter(size)
		wire.BeginReplyList(pw, n)
		for pa := first; pa != end; pa = pa.next {
			if r.rec != nil {
				// pa.req may already be nil by integrateSpan; the reply
				// carries the request identity, so key the timeline off it.
				r.rec.Stamp(pa.rep.ClientID, pa.rep.Timestamp, trace.ReplySealed)
			}
			pa.rep.Encode(pw)
		}
		env := r.sealWithSession(wire.MTReply, pw.Bytes(), head.session, head.useMAC)
		r.sendToAddr(head.addr, env)
		env.ReleaseRaw()
		pw.Free()
		if r.rec != nil {
			for pa := first; pa != end; pa = pa.next {
				r.rec.Finish(pa.rep.ClientID, pa.rep.Timestamp, trace.ReplySent)
			}
		}
		first = end
	}
}

// span is the unit of reaping: the applies one tryExecute pass submitted
// and, when the region has a flusher, the flush point that follows them.
type span struct {
	applies []*pendingApply
	flush   *flushPoint // nil without a flusher
}

// flushPoint is one state.Flusher capture. The capture runs as an engine
// barrier behind the span's mutations; persist and pages are written by
// it and read through the task's done channel or exec.WaitIdle.
type flushPoint struct {
	task    *exec.Task
	pages   int
	persist func() error
}

// submitFlushPoint schedules the capture closing the current span. As an
// unkeyed Submit it orders after every mutation of the span and before
// anything submitted later, at any shard count; the serial engine runs it
// inline.
func (r *Replica) submitFlushPoint() *flushPoint {
	fp := &flushPoint{}
	r.flushesPending.Add(1)
	fp.task = r.exec.Submit(nil, func() { fp.pages, fp.persist = r.flusher.Capture() })
	return fp
}

// runPersist makes a flush point durable; the caller has waited for the
// capture and holds the span's replies until this returns. Safe off the
// protocol loop. A failure concerns this replica's by-product only: the
// region is untouched, the replies go out, the error is counted.
func (r *Replica) runPersist(fp *flushPoint) {
	defer r.flushesPending.Add(-1)
	if fp.persist == nil {
		return
	}
	t0 := time.Now()
	if err := fp.persist(); err != nil {
		r.flushErrors.Add(1)
		return
	}
	r.imageFlushNanos.Add(uint64(time.Since(t0)))
	r.imageFlushPages.Add(uint64(fp.pages))
	r.imageFlushes.Add(1)
}

// flushRewrite runs a flush point outside any span, after the region was
// rewritten underneath the application (tentative rollback, state-
// transfer install): the flusher was told its by-product is stale, and
// the rewrite may be followed by no mutation that would flush it. The
// caller has reaped everything (reapApplies), so every earlier persist
// has run.
func (r *Replica) flushRewrite() {
	if r.flusher == nil {
		return
	}
	fp := r.submitFlushPoint()
	r.exec.WaitIdle()
	r.runPersist(fp)
}

// integrateSpan performs the loop-side half of reaping a completed span:
// attach the cached replies to the client windows (they are replicated
// state), record liveness, count executions. Replies were already sent by
// sealAndSendReply; a commit certificate that arrived while the span was
// in flight upgrades the cached copy here (the client's copy is upgraded
// by the usual retransmission path).
func (r *Replica) integrateSpan(sp span) {
	for _, pa := range sp.applies {
		rep := &pa.rep
		if pa.tentative && pa.e.committed {
			rep.Flags &^= wire.FlagTentative
		}
		r.clientWin(pa.req.ClientID).attach(pa.req.Timestamp, rep)
		pa.e.replies = append(pa.e.replies, rep)
		if client := r.nodes.get(pa.req.ClientID); client != nil {
			client.LastActive = uint64(pa.ndTime.UnixNano())
			if client.HasSession {
				r.nodes.touchSession(client)
			}
		}
		r.stats.Executed++
		// The reply cache retains rep — and therefore pa — for as long as
		// the client window does. Drop pa's references to the request
		// body, the engine task, the log entry and its reply group so an
		// idle client's cached reply does not pin a whole batch past
		// checkpoint GC.
		pa.req = nil
		pa.task = nil
		pa.e = nil
		pa.head, pa.next = nil, nil
	}
}

// finishSpan closes one tryExecute pass over the current applyQueue. It
// prefers the inline fast path — when nothing is queued behind the reaper
// and every task already finished (the serial engine's inline
// execution), reaping here costs no handoff and keeps the seed schedule —
// and otherwise hands the span to the reaper goroutine so agreement
// overlaps the remaining execution. A span with a flush point always goes
// to the reaper: its fsyncs are the remaining execution.
func (r *Replica) finishSpan() {
	r.collectReaped()
	if len(r.applyQueue) == 0 {
		return
	}
	if len(r.replyTails) > 0 {
		clear(r.replyTails) // reply groups never cross a span
	}
	var fp *flushPoint
	if r.flusher != nil {
		fp = r.submitFlushPoint()
	}
	if fp == nil && r.reaper.idle() && r.spanDone() {
		r.reapSpanInPlace()
		return
	}
	sp := span{applies: r.applyQueue, flush: fp}
	r.applyQueue = nil
	r.reaper.submit(sp)
}

// spanDone reports whether every task in the current applyQueue has
// already executed (non-blocking).
func (r *Replica) spanDone() bool {
	for _, pa := range r.applyQueue {
		select {
		case <-pa.task.Done():
		default:
			return false
		}
	}
	return true
}

// reapSpanInPlace is the inline fast path: wait for the engine (every
// task already finished), then send and integrate the span on the loop.
func (r *Replica) reapSpanInPlace() {
	// Every task in applyQueue was submitted before this point, so one
	// WaitIdle covers them all: results are written and visible.
	r.exec.WaitIdle()
	r.sendSpanReplies(r.applyQueue)
	r.integrateSpan(span{applies: r.applyQueue})
	clear(r.applyQueue) // release the reaped span's requests and tasks
	r.applyQueue = r.applyQueue[:0]
}

// collectReaped integrates any spans the reaper has finished with,
// without blocking. The protocol loop calls it opportunistically (reaper
// notify) and before starting a new span.
func (r *Replica) collectReaped() {
	for _, sp := range r.reaper.collect() {
		r.integrateSpan(sp)
	}
}

// reapApplies is the full barrier: every scheduled mutation executed,
// every flush point persisted, every reply sent, every span integrated.
// Checkpoints, membership operations, view-change rollback, state
// transfer and shutdown all pass through here — which is why a snapshot
// can never observe a half-reaped span, on either reap path.
func (r *Replica) reapApplies() {
	r.finishSpan()
	r.reaper.drain(r.integrateSpan)
	r.exec.WaitIdle()
	if n := r.flushesPending.Load(); n != 0 {
		panic(fmt.Sprintf("core: %d flush points outstanding behind the reap barrier", n))
	}
}

// checkLiveness fires the view-change triggers: a pending request that sat
// unexecuted past the timeout, a pending request under a primary that went
// silent (primarySilent), or a view change that stalled, pushes the replica
// to the next view.
func (r *Replica) checkLiveness(now time.Time) {
	if r.inViewChange {
		if !r.vcDeadline.IsZero() && now.After(r.vcDeadline) {
			r.startViewChange(r.vcTarget+1, trace.CauseStalled)
		}
		return
	}
	timeout := r.cfg.Opts.ViewChangeTimeout
	if timeout <= 0 || len(r.pendingSeen) == 0 {
		return
	}
	for _, p := range r.pendingSeen {
		if now.Sub(p.since) > timeout {
			r.startViewChange(r.view+1, trace.CauseRequestTimeout)
			return
		}
	}
	if r.primarySilent(now, timeout) {
		r.startViewChange(r.view+1, trace.CausePrimarySilent)
	}
}

// primarySilent is the crash-suspicion rule: with a request pending, a
// primary that has sent nothing authenticated at all for
// max(ViewChangeTimeout/4, 3 x StatusInterval) — status gossip alone would
// have produced three messages — is taken for crashed, and the view change
// starts without waiting out the request timer. A primary that says
// anything, however slow, withholding or equivocating, keeps the full
// timeout. Three guards keep the rule from misreading this replica's own
// trouble as the primary's:
//
//   - the silence is differential: within the last 2 x StatusInterval 2f
//     other replicas were heard, so a backup cut off from everybody (or
//     alone with a quiet group) never fires;
//   - it is counted only while this replica listened: not before the
//     window (re)started at an install or after a gap in its own ticks
//     (onTick), because messages that queued up behind a stalled loop
//     carry the stamp of the tick before the stall;
//   - and not before the primary was heard once, so a replica that just
//     booted into a view does not judge it.
func (r *Replica) primarySilent(now time.Time, timeout time.Duration) bool {
	status := r.cfg.Opts.StatusInterval
	primary := r.cfg.Primary(r.view)
	last := r.heard[primary]
	if last.IsZero() {
		return false
	}
	if last.Before(r.listeningSince) {
		last = r.listeningSince
	}
	if now.Sub(last) < max(timeout/4, 3*status) {
		return false
	}
	talking := 0
	for id, at := range r.heard {
		if uint32(id) != primary && uint32(id) != r.id && now.Sub(at) <= 2*status {
			talking++
		}
	}
	return talking >= 2*r.f
}

// --- Replicated middleware metadata -------------------------------------
//
// The per-client execution windows (executed timestamps + cached replies),
// dynamic membership and pending joins are part of the replicated state:
// they are folded into checkpoint digests, shipped during state transfer,
// and restored on rollback.

func (r *Replica) marshalMeta() []byte {
	w := wire.NewWriter(1024)

	clients := make([]uint32, 0, len(r.clientWins))
	for c := range r.clientWins {
		clients = append(clients, c)
	}
	sort.Slice(clients, func(i, j int) bool { return clients[i] < clients[j] })
	w.U32(uint32(len(clients)))
	for _, c := range clients {
		cw := r.clientWins[c]
		w.U32(c)
		w.U64(cw.maxTS)
		w.U64(cw.base)
		tss := cw.sortedTS()
		w.U32(uint32(len(tss)))
		for _, ts := range tss {
			w.U64(ts)
			if rep := cw.done[ts]; rep != nil {
				w.U8(1)
				// Canonical form: volatile fields (view, tentative flag,
				// origin replica) are timing-dependent and must not leak
				// into the agreed state digest.
				canon := wire.Reply{
					Timestamp: rep.Timestamp,
					ClientID:  rep.ClientID,
					Result:    rep.Result,
				}
				w.Bytes32(canon.Marshal())
			} else {
				w.U8(0)
			}
		}
	}

	w.Raw(r.nodes.marshalDynamic())

	keys := make([]string, 0, len(r.pendingJoins))
	for k := range r.pendingJoins {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w.U32(uint32(len(keys)))
	for _, k := range keys {
		pj := r.pendingJoins[k]
		w.String32(k)
		w.String32(pj.addr)
		w.Bytes32(pj.pubRaw)
		w.U64(pj.nonce)
		w.Bytes32(pj.appAuth)
		w.Raw(pj.challenge[:])
		w.U64(pj.ts)
	}
	w.U64(r.idSeed)
	return w.Bytes()
}

func (r *Replica) unmarshalMeta(b []byte) error {
	rd := wire.NewReader(b)
	nClients := int(rd.U32())
	clientWins := make(map[uint32]*clientWindow, nClients)
	for i := 0; i < nClients; i++ {
		c := rd.U32()
		cw := newClientWindow()
		cw.maxTS = rd.U64()
		cw.base = rd.U64()
		nTS := int(rd.U32())
		for j := 0; j < nTS; j++ {
			ts := rd.U64()
			var rep *wire.Reply
			if rd.U8() == 1 {
				raw := rd.Bytes32()
				if rd.Err() != nil {
					return rd.Err()
				}
				var err error
				rep, err = wire.UnmarshalReply(raw)
				if err != nil {
					return err
				}
				// Rehydrate the volatile fields for this replica.
				rep.Replica = r.id
				rep.View = r.view
			}
			cw.done[ts] = rep
		}
		clientWins[c] = cw
	}
	if err := rd.Err(); err != nil {
		return err
	}
	// Dynamic membership rows.
	rest := b[rd.Offset():]
	dynLen, err := dynamicRowsLength(rest)
	if err != nil {
		return err
	}
	if err := r.nodes.unmarshalDynamic(rest[:dynLen]); err != nil {
		return err
	}
	rd.Fixed(make([]byte, dynLen))

	nJoins := int(rd.U32())
	pj := make(map[string]*pendingJoin, nJoins)
	for i := 0; i < nJoins; i++ {
		k := rd.String32()
		p := &pendingJoin{}
		p.addr = rd.String32()
		p.pubRaw = rd.Bytes32()
		p.nonce = rd.U64()
		p.appAuth = rd.Bytes32()
		rd.Fixed(p.challenge[:])
		p.ts = rd.U64()
		if rd.Err() != nil {
			return rd.Err()
		}
		pub, err := crypto.UnmarshalPublicKey(p.pubRaw)
		if err != nil {
			return err
		}
		p.pub = pub
		pj[k] = p
	}
	idSeed := rd.U64()
	if err := rd.Done(); err != nil {
		return err
	}
	r.clientWins = clientWins
	r.pendingJoins = pj
	r.idSeed = idSeed
	// The dynamic membership rows changed wholesale (state transfer
	// install or rollback): republish the ingress verifiers' view.
	r.syncClientAuth()
	return nil
}

// dynamicRowsLength computes the encoded length of the dynamic membership
// block without destructively parsing it.
func dynamicRowsLength(b []byte) (int, error) {
	rd := wire.NewReader(b)
	n := int(rd.U32())
	for i := 0; i < n; i++ {
		rd.U32()     // id
		rd.Bytes32() // addr
		rd.Bytes32() // pubkey
		rd.Bytes32() // principal
		rd.U64()     // lastActive
	}
	if err := rd.Err(); err != nil {
		return 0, err
	}
	return rd.Offset(), nil
}

// rollbackTentative rewinds tentative executions to the committed prefix:
// restore the last stable checkpoint, then re-execute the committed
// entries above it. Called when entering a view change (§2.1, tentative
// execution).
func (r *Replica) rollbackTentative() {
	if r.lastExec == r.committedContig {
		return
	}
	ck := r.ckpts[r.lastStable]
	if ck == nil || ck.snap == nil {
		return // cannot roll back without the anchor; state transfer will fix us
	}
	// Integrate every in-flight span before the client windows are
	// restored underneath it, then quiesce detached reads before
	// rewinding the region under them.
	r.reapApplies()
	r.exec.Drain()
	r.region.Restore(ck.snap)
	if err := r.unmarshalMeta(ck.meta); err != nil {
		return
	}
	r.region.ReleaseAbove(r.lastStable)
	for s := range r.ckpts {
		if s > r.lastStable {
			delete(r.ckpts, s)
		}
	}
	r.lastExec = r.lastStable
	for s := r.lastStable + 1; ; s++ {
		e := r.log[s]
		if e == nil || !e.committed || e.pp == nil || !r.resolveBodies(e) {
			break
		}
		r.submitEntry(e)
		r.lastExec = s
		if e.seq%r.cfg.Opts.CheckpointInterval == 0 {
			r.reapApplies()
			r.takeCheckpoint(e.seq)
		}
	}
	r.reapApplies()
	r.flushRewrite()
	r.committedContig = r.lastExec
}

// ndMarshal flattens a non-determinism payload (helper for call sites that
// hold a value, not a pointer).
func ndMarshal(nd wire.NonDet) []byte { return nd.Marshal() }
