package core

import (
	"time"

	"repro/internal/trace"
	"repro/internal/wire"
)

// stampEntries marks every request carried by a log entry's pre-prepare
// with an agreement phase, tagging the timeline with the entry's
// sequence number and view.
func (r *Replica) stampEntries(e *entry, p trace.Phase) {
	if r.rec == nil || e.pp == nil {
		return
	}
	for i := range e.pp.Entries {
		c, ts := e.pp.Entries[i].RequestID()
		r.rec.StampSeq(c, ts, p, e.seq, e.view)
	}
}

// onRequest processes an authenticated client request. raw is the
// envelope's wire form, kept for relaying to the primary unchanged (so the
// primary verifies the client's own authentication, not the relayer's).
func (r *Replica) onRequest(req *wire.Request, client *nodeEntry, raw []byte) {
	if r.rec != nil {
		r.rec.Stamp(req.ClientID, req.Timestamp, trace.LoopDispatch)
	}
	if req.ReadOnly() {
		r.execReadOnly(req, client)
		return
	}
	// Already executed? Retransmit the cached reply. Also disarm any
	// liveness timer a backup armed for an earlier relay of this
	// request: a retransmission that dedups here must not keep pushing
	// the replica toward a view change it cannot satisfy.
	if cw := r.clientWins[req.ClientID]; cw != nil && cw.executed(req.Timestamp, r.cfg.ClientWindow()) {
		r.forgetPending(reqKey{req.ClientID, req.Timestamp})
		if cached := cw.cachedReply(req.Timestamp); cached != nil {
			r.sendReply(cached, client)
		}
		return
	}
	if req.Big() {
		r.bigBodies[req.Digest()] = &bigBody{req: req}
	}
	if r.isPrimary() && !r.inViewChange {
		queued := r.primaryQueued[req.ClientID]
		if queued[req.Timestamp] {
			return // already queued or ordered
		}
		// Bounded pipeline: at most W requests per client queued at once;
		// anything beyond the window is dropped and left to the client's
		// retransmission once earlier requests execute.
		if uint64(len(queued)) >= r.cfg.ClientWindow() {
			return
		}
		if queued == nil {
			queued = make(map[uint64]bool)
			r.primaryQueued[req.ClientID] = queued
		}
		queued[req.Timestamp] = true
		r.pendingQueue = append(r.pendingQueue, req)
		if r.rec != nil {
			r.rec.Stamp(req.ClientID, req.Timestamp, trace.BatchEnqueue)
		}
		r.tryPropose()
		return
	}
	// Backup: remember the request for the liveness timer and relay the
	// client's envelope to the primary verbatim (big bodies were
	// multicast by the client already, so only the non-big path relays).
	r.notePending(reqKey{req.ClientID, req.Timestamp}, req)
	if !req.Big() && !r.inViewChange && raw != nil {
		_ = r.conn.Send(r.cfg.Replicas[r.cfg.Primary(r.view)].Addr, raw)
	}
}

// notePending arms the request timer for a request the primary has yet to
// order and keeps the request beside the stamp. A correct client has at
// most ClientWindow requests in flight, so that is all one client gets: a
// client that floods distinct timestamps cannot grow the map.
func (r *Replica) notePending(key reqKey, req *wire.Request) {
	if _, ok := r.pendingSeen[key]; ok {
		return
	}
	if uint64(r.pendingPerCli[key.client]) >= r.cfg.ClientWindow() {
		return
	}
	r.pendingPerCli[key.client]++
	r.pendingSeen[key] = pendingReq{since: r.now(), req: req}
}

// forgetPending disarms the request timer and drops the held request: the
// request was assigned a sequence number, executed, or found executed.
func (r *Replica) forgetPending(key reqKey) {
	if _, ok := r.pendingSeen[key]; !ok {
		return
	}
	delete(r.pendingSeen, key)
	if r.pendingPerCli[key.client]--; r.pendingPerCli[key.client] <= 0 {
		delete(r.pendingPerCli, key.client)
	}
}

// tryPropose lets the primary assign sequence numbers to queued requests,
// honoring the congestion window and the high watermark (§2.1).
func (r *Replica) tryPropose() {
	if !r.isPrimary() || r.inViewChange || r.sync != nil {
		return
	}
	for len(r.pendingQueue) > 0 {
		if r.seq+1 > r.lastStable+r.cfg.LogWindow() {
			return // log full until the next stable checkpoint
		}
		batch := 1
		if r.cfg.Opts.Batching {
			// Congestion window: if execution lags too far behind,
			// postpone the pre-prepare; the queue will drain into a
			// single batch once execution catches up.
			if r.seq-r.lastExec >= uint64(r.cfg.Opts.CongestionWindow) {
				return
			}
			batch = len(r.pendingQueue)
			// The batch-size bound: the adaptive controller's live
			// window (Options.AdaptiveBatching), or the static MaxBatch.
			if max := r.batchWindow(); max > 0 && batch > max {
				batch = max
			}
			// Datagram bound: inline bodies count in full, digest
			// entries are small. This caps batches of non-big
			// requests well below MaxBatch (§2.1).
			if bb := r.cfg.Opts.MaxBatchBytes; bb > 0 {
				bytes := 64
				n := 0
				for _, req := range r.pendingQueue[:batch] {
					cost := 44
					if !req.Big() {
						cost = 32 + len(req.Op)
					}
					if n > 0 && bytes+cost > bb {
						break
					}
					bytes += cost
					n++
				}
				batch = n
			}
		}
		reqs := r.pendingQueue[:batch]
		r.pendingQueue = append([]*wire.Request(nil), r.pendingQueue[batch:]...)
		r.propose(reqs)
	}
}

// propose builds, logs and broadcasts one pre-prepare.
func (r *Replica) propose(reqs []*wire.Request) {
	r.seq++
	if r.batchCtl != nil {
		// Feed the controller its occupancy signal and stamp the entry
		// so the commit certificate closes the latency sample.
		r.batchCtl.observeBatch(len(reqs))
	}
	pp := &wire.PrePrepare{
		View:   r.view,
		Seq:    r.seq,
		NonDet: ndMarshal(r.ndProvider()),
	}
	pp.Entries = make([]wire.BatchEntry, 0, len(reqs))
	for _, req := range reqs {
		if req.Big() {
			pp.Entries = append(pp.Entries, wire.BatchEntry{
				ClientID:  req.ClientID,
				Timestamp: req.Timestamp,
				Digest:    req.Digest(),
			})
		} else {
			pp.Entries = append(pp.Entries, wire.BatchEntry{Full: true, Req: *req})
		}
	}
	env := r.sealToReplicas(wire.MTPrePrepare, pp.Marshal())
	e := r.getEntry(pp.Seq)
	e.view = r.view
	e.pp = pp
	e.ppRaw = env.Raw()
	e.digest = pp.BatchDigest()
	e.ppAt = r.tickAt
	if r.batchCtl != nil {
		e.proposedAt = r.now()
	}
	r.broadcast(env)
	r.stampEntries(e, trace.PrePrepareSent)
	r.tryPrepared(e)
	r.tryExecute()
}

// getEntry returns (creating if needed) the log entry for seq.
func (r *Replica) getEntry(seq uint64) *entry {
	e, ok := r.log[seq]
	if !ok {
		e = newEntry(seq)
		r.log[seq] = e
	}
	return e
}

// inWindow checks the sequence watermarks.
func (r *Replica) inWindow(seq uint64) bool {
	return seq > r.lastStable && seq <= r.lastStable+r.cfg.LogWindow()
}

// acceptPrePrepare validates and logs a pre-prepare (decoded and
// authenticated by the ingress pipeline) from sender; raw is its envelope's
// wire form. One for the view being voted is parked until that view
// installs (hold).
func (r *Replica) acceptPrePrepare(pp *wire.PrePrepare, sender uint32, raw []byte) {
	if sender != r.cfg.Primary(pp.View) || !r.inWindow(pp.Seq) {
		return
	}
	if r.inViewChange {
		if pp.View == r.vcTarget {
			r.hold(heldKey{wire.MTPrePrepare, pp.Seq, sender}, heldMsg{pp: pp, raw: raw})
		}
		return
	}
	if pp.View != r.view {
		return
	}
	digest := pp.BatchDigest()
	e := r.getEntry(pp.Seq)
	if e.pp != nil && e.view == pp.View {
		if e.digest != digest {
			// Conflicting assignment from the primary: Byzantine
			// behaviour; refuse (the liveness timer will eventually
			// force a view change).
			r.stats.ConflictingPrePrepares++
			return
		}
		return // duplicate
	}
	// Validate the primary's non-deterministic choices (§2.5). A replayed
	// pre-prepare with a stale timestamp fails here — the recovery pitfall
	// the paper describes.
	if len(pp.Entries) > 0 {
		nd, err := wire.UnmarshalNonDet(pp.NonDet)
		if err != nil || !r.ndValidator(*nd) {
			r.stats.RejectedNonDet++
			return
		}
	}
	if e.pp != nil && pp.View > e.view {
		e.resetForView(pp.View, pp, raw, digest)
	} else {
		e.view = pp.View
		e.pp = pp
		e.ppRaw = raw
		e.digest = digest
	}
	e.ppAt = r.tickAt
	// Remember full bodies so status retransmission can serve them, and
	// clear liveness timers for the assigned requests.
	for i := range pp.Entries {
		be := &pp.Entries[i]
		c, ts := be.RequestID()
		r.forgetPending(reqKey{c, ts})
		if be.Full && be.Req.Big() {
			req := be.Req
			r.bigBodies[req.Digest()] = &bigBody{req: &req}
		}
	}
	if !r.isPrimary() && !e.sentPrepare {
		e.sentPrepare = true
		prep := wire.Prepare{View: pp.View, Seq: pp.Seq, Digest: digest, Replica: r.id}
		e.prepares[r.id] = digest
		pw := wire.GetWriter(64)
		prep.Encode(pw)
		r.broadcastTransient(wire.MTPrepare, pw)
	}
	r.tryPrepared(e)
	r.tryExecute()
}

// onPrepare records a backup's prepare vote (decoded and authenticated by
// the ingress pipeline).
func (r *Replica) onPrepare(p *wire.Prepare) {
	if !r.inWindow(p.Seq) {
		return
	}
	if r.inViewChange {
		if p.View == r.vcTarget {
			r.hold(heldKey{wire.MTPrepare, p.Seq, p.Replica}, heldMsg{prep: *p})
		}
		return
	}
	if p.View != r.view {
		return
	}
	if p.Replica == r.cfg.Primary(p.View) {
		return // the primary's pre-prepare is its prepare
	}
	e := r.getEntry(p.Seq)
	e.prepares[p.Replica] = p.Digest
	r.tryPrepared(e)
	r.tryExecute()
}

// tryPrepared checks the 2f-prepare certificate and advances to commit.
func (r *Replica) tryPrepared(e *entry) {
	if e.prepared || e.pp == nil || e.view != r.view {
		return
	}
	if e.countPrepares() < 2*r.f {
		return
	}
	e.prepared = true
	r.stampEntries(e, trace.PrepareQuorum)
	if !e.sentCommit {
		e.sentCommit = true
		c := wire.Commit{View: e.view, Seq: e.seq, Digest: e.digest, Replica: r.id}
		e.commits[r.id] = e.digest
		cw := wire.GetWriter(64)
		c.Encode(cw)
		r.broadcastTransient(wire.MTCommit, cw)
	}
	r.tryCommitted(e)
}

// onCommit records a replica's commit vote (decoded and authenticated by
// the ingress pipeline).
func (r *Replica) onCommit(c *wire.Commit) {
	if !r.inWindow(c.Seq) {
		return
	}
	if r.inViewChange {
		if c.View == r.vcTarget {
			r.hold(heldKey{wire.MTCommit, c.Seq, c.Replica}, heldMsg{cmt: *c})
		}
		return
	}
	if c.View != r.view {
		return
	}
	e := r.getEntry(c.Seq)
	e.commits[c.Replica] = c.Digest
	r.tryPrepared(e)
	r.tryCommitted(e)
	r.tryExecute()
}

// tryCommitted checks the 2f+1-commit certificate.
func (r *Replica) tryCommitted(e *entry) {
	if e.committed || !e.prepared {
		return
	}
	if e.countCommits() < r.quorum {
		return
	}
	e.committed = true
	r.stampEntries(e, trace.CommitQuorum)
	if r.batchCtl != nil && !e.proposedAt.IsZero() {
		// Close the controller's commit-latency sample for a batch this
		// replica proposed.
		r.batchCtl.observeCommit(r.now().Sub(e.proposedAt))
		e.proposedAt = time.Time{}
	}
	r.emit(trace.Event{Kind: trace.EvCommit, View: e.view, Seq: e.seq})
	// A commit upgrades tentatively executed replies to stable.
	if e.executed {
		for _, rep := range e.replies {
			rep.Flags &^= wire.FlagTentative
		}
		r.advanceCommittedContig()
	}
}

// advanceCommittedContig moves the committed-and-executed frontier.
func (r *Replica) advanceCommittedContig() {
	for {
		e := r.log[r.committedContig+1]
		if e == nil || !e.committed || !e.executed {
			return
		}
		r.committedContig++
	}
}
