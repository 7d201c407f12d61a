package core

import (
	"bytes"
	"sort"
	"time"

	"repro/internal/trace"
	"repro/internal/wire"
)

// startViewChange abandons the current view and votes for target (§2.1);
// cause names the trigger for the trace.
func (r *Replica) startViewChange(target uint64, cause trace.ViewChangeCause) {
	if target <= r.view {
		return
	}
	if r.inViewChange && target <= r.vcTarget {
		return
	}
	r.inViewChange = true
	r.vcTarget = target
	r.vcDeadline = r.now().Add(r.cfg.Opts.ViewChangeTimeout)
	r.emit(trace.Event{Kind: trace.EvViewChangeStart, View: r.view, Seq: r.seq, Target: target, Cause: cause})
	r.pendingQueue = nil
	r.held = nil // parked votes were for the previous target
	r.rollbackTentative()

	vc := &wire.ViewChange{
		NewView:    target,
		LastStable: r.lastStable,
		Replica:    r.id,
	}
	if ck := r.ckpts[r.lastStable]; ck != nil {
		vc.StableDigest = ck.digest
	}
	seqs := make([]uint64, 0, len(r.log))
	for s := range r.log {
		seqs = append(seqs, s)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for _, s := range seqs {
		e := r.log[s]
		if e.prepared && s > r.lastStable {
			vc.Prepared = append(vc.Prepared, wire.PreparedInfo{
				Seq:    s,
				View:   e.view,
				Digest: e.digest,
				PPRaw:  e.ppRaw,
			})
		}
	}
	env := r.sealSigned(wire.MTViewChange, vc.Marshal())
	raw := env.Raw()
	r.recordViewChange(vc, raw)
	r.broadcast(env)
	r.tryNewView(target)
}

// recordViewChange stores one view-change vote.
func (r *Replica) recordViewChange(vc *wire.ViewChange, raw []byte) {
	votes, ok := r.viewChanges[vc.NewView]
	if !ok {
		votes = make(map[uint32]*vcRecord)
		r.viewChanges[vc.NewView] = votes
	}
	if _, dup := votes[vc.Replica]; !dup {
		votes[vc.Replica] = &vcRecord{vc: vc, raw: raw}
	}
}

// onViewChange processes a peer's (signed) view-change vote.
func (r *Replica) onViewChange(env *wire.Envelope, raw []byte) {
	vc, err := wire.UnmarshalViewChange(env.Payload)
	if err != nil || vc.Replica != env.Sender {
		return
	}
	if vc.NewView <= r.view {
		return
	}
	r.recordViewChange(vc, raw)

	// Liveness rule: seeing f+1 distinct replicas voting for views above
	// ours, join the smallest of them (prevents a slow replica from
	// stalling behind).
	if !r.inViewChange || vc.NewView > r.vcTarget {
		smallest := uint64(0)
		voters := make(map[uint32]bool)
		for v, votes := range r.viewChanges {
			if v <= r.view {
				continue
			}
			for id := range votes {
				if id != r.id {
					voters[id] = true
				}
			}
			if smallest == 0 || v < smallest {
				smallest = v
			}
		}
		if len(voters) > r.f && smallest > r.view {
			if !r.inViewChange || smallest > r.vcTarget {
				r.startViewChange(smallest, trace.CauseJoined)
			}
		}
	}
	r.tryNewView(vc.NewView)
}

// tryNewView lets the would-be primary of the target view assemble and
// broadcast the new-view message once it holds a 2f+1 quorum of votes.
func (r *Replica) tryNewView(target uint64) {
	if r.cfg.Primary(target) != r.id || target <= r.view {
		return
	}
	if !r.inViewChange || r.vcTarget != target {
		return
	}
	votes := r.viewChanges[target]
	if len(votes) < r.quorum {
		return
	}
	ids := make([]uint32, 0, len(votes))
	for id := range votes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	ids = ids[:r.quorum]
	selected := make([]*vcRecord, 0, len(ids))
	raws := make([][]byte, 0, len(ids))
	for _, id := range ids {
		selected = append(selected, votes[id])
		raws = append(raws, votes[id].raw)
	}
	o := computeO(target, selected)
	nv := &wire.NewView{View: target, ViewChanges: raws, PrePrepares: o}
	env := r.sealSigned(wire.MTNewView, nv.Marshal())
	raw := env.Raw()
	r.broadcast(env)
	r.installNewView(nv, raw)
}

// computeO derives the re-proposed pre-prepares of a new view from the
// selected view-change votes: for every sequence number between the
// highest stable checkpoint (min-s) and the highest prepared sequence
// number (max-s), re-propose the prepared batch with the highest view, or
// a null request if none prepared (§2.1, Castro–Liskov).
func computeO(view uint64, votes []*vcRecord) []wire.PrePrepare {
	minS := uint64(0)
	maxS := uint64(0)
	type cand struct {
		view  uint64
		ppRaw []byte
	}
	best := make(map[uint64]cand)
	for _, rec := range votes {
		if rec.vc.LastStable > minS {
			minS = rec.vc.LastStable
		}
		for _, p := range rec.vc.Prepared {
			if p.Seq > maxS {
				maxS = p.Seq
			}
			if c, ok := best[p.Seq]; !ok || p.View > c.view {
				best[p.Seq] = cand{view: p.View, ppRaw: p.PPRaw}
			}
		}
	}
	var out []wire.PrePrepare
	for s := minS + 1; s <= maxS; s++ {
		c, ok := best[s]
		if !ok {
			// Null request fills the gap.
			out = append(out, wire.PrePrepare{View: view, Seq: s})
			continue
		}
		env, err := wire.UnmarshalEnvelope(c.ppRaw)
		if err != nil {
			out = append(out, wire.PrePrepare{View: view, Seq: s})
			continue
		}
		pp, err := wire.UnmarshalPrePrepare(env.Payload)
		if err != nil {
			out = append(out, wire.PrePrepare{View: view, Seq: s})
			continue
		}
		out = append(out, wire.PrePrepare{
			View:    view,
			Seq:     s,
			NonDet:  pp.NonDet,
			Entries: pp.Entries,
		})
	}
	return out
}

// onNewView validates and installs a primary's new-view message.
func (r *Replica) onNewView(env *wire.Envelope, raw []byte) {
	nv, err := wire.UnmarshalNewView(env.Payload)
	if err != nil {
		return
	}
	if nv.View <= r.view || env.Sender != r.cfg.Primary(nv.View) {
		return
	}
	// Verify the supporting votes: 2f+1 correctly signed view changes
	// for exactly this view, from distinct replicas.
	seen := make(map[uint32]bool)
	votes := make([]*vcRecord, 0, len(nv.ViewChanges))
	for _, vcRaw := range nv.ViewChanges {
		vcEnv, err := wire.UnmarshalEnvelope(vcRaw)
		if err != nil || vcEnv.Type != wire.MTViewChange {
			return
		}
		if !r.verifySignedReplica(vcEnv) {
			return
		}
		vc, err := wire.UnmarshalViewChange(vcEnv.Payload)
		if err != nil || vc.Replica != vcEnv.Sender || vc.NewView != nv.View {
			return
		}
		if seen[vc.Replica] {
			return
		}
		seen[vc.Replica] = true
		votes = append(votes, &vcRecord{vc: vc, raw: vcRaw})
	}
	if len(votes) < r.quorum {
		return
	}
	// Recompute O independently and compare: a faulty primary cannot
	// smuggle in batches that were never prepared.
	expected := computeO(nv.View, votes)
	if len(expected) != len(nv.PrePrepares) {
		return
	}
	for i := range expected {
		if !bytes.Equal(expected[i].Marshal(), nv.PrePrepares[i].Marshal()) {
			return
		}
	}
	r.installNewView(nv, raw)
}

// installNewView moves the replica into the new view and re-runs
// agreement for the re-proposed sequence numbers.
func (r *Replica) installNewView(nv *wire.NewView, raw []byte) {
	if !r.inViewChange {
		// Jumping into the view directly (e.g. replica was partitioned
		// during the vote): roll back tentative state first.
		r.rollbackTentative()
	}
	r.view = nv.View
	r.inViewChange = false
	r.vcTarget = 0
	r.vcDeadline = time.Time{} // disarmed until the next view change
	r.newViewRaw = raw
	// Fires before the re-proposed batches replay, so a trace reads
	// install -> (re)agreement -> execution in order.
	r.emit(trace.Event{Kind: trace.EvViewChangeInstall, View: nv.View, Seq: r.seq, Target: nv.View})
	r.primaryQueued = make(map[uint32]map[uint64]bool)
	r.primaryJoinSeen = nil
	r.pendingQueue = nil
	// Restart the request timers and the suspicion window: the new primary
	// gets a full timeout, and a full silence, of its own.
	now := r.now()
	for k, p := range r.pendingSeen {
		p.since = now
		r.pendingSeen[k] = p
	}
	r.listeningSince = now
	held := r.held
	r.held = nil

	maxS := r.lastStable
	primaryEnv := &wire.Envelope{Type: wire.MTPrePrepare, Sender: r.cfg.Primary(nv.View)}
	for i := range nv.PrePrepares {
		pp := nv.PrePrepares[i]
		if pp.Seq > maxS {
			maxS = pp.Seq
		}
		if pp.Seq <= r.lastStable {
			continue
		}
		primaryEnv.Payload = pp.Marshal()
		e := r.getEntry(pp.Seq)
		e.resetForView(pp.View, &pp, primaryEnv.Marshal(), pp.BatchDigest())
		e.ppAt = r.tickAt
		for j := range pp.Entries {
			c, ts := pp.Entries[j].RequestID()
			r.forgetPending(reqKey{c, ts}) // assigned, as in acceptPrePrepare
		}
		if !r.isPrimary() && !e.sentPrepare {
			e.sentPrepare = true
			prep := wire.Prepare{View: pp.View, Seq: pp.Seq, Digest: e.digest, Replica: r.id}
			e.prepares[r.id] = e.digest
			r.broadcast(r.sealToReplicas(wire.MTPrepare, prep.Marshal()))
		}
	}
	if r.seq < maxS {
		r.seq = maxS
	}
	// Entries above max-s from the old view are void (they were not
	// prepared anywhere in the quorum's knowledge).
	for s, e := range r.log {
		if s > maxS && e.view < nv.View {
			delete(r.log, s)
		}
	}
	for i := range nv.PrePrepares {
		if nv.PrePrepares[i].Seq <= r.lastStable {
			continue
		}
		if e := r.log[nv.PrePrepares[i].Seq]; e != nil {
			r.tryPrepared(e)
		}
	}
	for k, m := range held {
		switch k.kind {
		case wire.MTPrePrepare:
			r.acceptPrePrepare(m.pp, k.replica, m.raw)
		case wire.MTPrepare:
			r.onPrepare(&m.prep)
		case wire.MTCommit:
			r.onCommit(&m.cmt)
		}
	}
	if r.isPrimary() {
		r.reproposeHeld()
	}
	r.tryExecute()
}

// hold parks one agreement message of the view being voted that arrived
// before its NEW-VIEW; installNewView replays what is parked for the view
// it installs. Nothing would retransmit these messages otherwise (status
// gossip resends only what is older than a StatusInterval), and with one
// replica down a single overtaken pre-prepare leaves the fresh view short
// of a quorum for a whole ViewChangeTimeout. Bounded by the log window:
// one entry per (kind, sequence number in the window, sender).
func (r *Replica) hold(k heldKey, m heldMsg) {
	if _, ok := r.held[k]; !ok && len(r.held) >= int(r.cfg.LogWindow())*(2*r.n+1) {
		return // only reachable when the window slid under a long view change
	}
	if r.held == nil {
		r.held = make(map[heldKey]heldMsg)
	}
	r.held[k] = m
}

// reproposeHeld lets the new primary order at once the requests it was
// itself waiting on as a backup, in (client, timestamp) order, instead of
// leaving them to each client's next retransmission. What the O set
// re-proposed is no longer pending; onRequest filters what the client
// windows report executed.
func (r *Replica) reproposeHeld() {
	var reqs []*wire.Request
	for _, p := range r.pendingSeen {
		if p.req != nil {
			reqs = append(reqs, p.req)
		}
	}
	sort.Slice(reqs, func(i, j int) bool {
		if reqs[i].ClientID != reqs[j].ClientID {
			return reqs[i].ClientID < reqs[j].ClientID
		}
		return reqs[i].Timestamp < reqs[j].Timestamp
	})
	for _, req := range reqs {
		if client := r.nodes.get(req.ClientID); client != nil {
			r.onRequest(req, client, nil)
		}
	}
}
