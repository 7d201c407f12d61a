package core

import (
	"time"

	"repro/internal/crypto"
	"repro/internal/state"
	"repro/internal/trace"
	"repro/internal/wire"
)

// metaLevel marks a Fetch for the middleware metadata blob instead of a
// Merkle node or page.
const metaLevel = ^uint32(0)

// syncState tracks a state transfer in progress.
type syncState struct {
	seq        uint64
	digest     crypto.Digest // composite (agreement digest)
	root       crypto.Digest
	metaDigest crypto.Digest
	proof      [][]byte
	syncer     *state.Syncer
	meta       []byte // verified metadata blob, nil until fetched
	peerRR     uint32 // round-robin cursor over replicas
	lastAsk    time.Time
}

// startSync begins (or retargets) a state transfer to the proven stable
// checkpoint seq.
func (r *Replica) startSync(seq uint64, digest, root, metaDigest crypto.Digest, proof [][]byte) {
	if r.sync != nil && r.sync.seq >= seq {
		return
	}
	if seq <= r.lastStable && seq <= r.lastExec {
		return
	}
	// Reap and integrate every in-flight span (the install will replace
	// the client windows wholesale), then quiesce the execution engine,
	// detached reads included: new reads are refused while syncing
	// (execReadOnly's r.sync guard), and a read queued earlier must not
	// observe the region mid-install and seal a torn reply.
	r.reapApplies()
	r.exec.Drain()
	// A retarget of a running transfer emits another start: the trace
	// shows every checkpoint the replica chased.
	r.emit(trace.Event{Kind: trace.EvStateTransferStart, View: r.view, Seq: seq, Count: r.stats.PagesFetched})
	r.sync = &syncState{
		seq:        seq,
		digest:     digest,
		root:       root,
		metaDigest: metaDigest,
		proof:      proof,
		syncer:     state.NewSyncer(r.region.LeafDigests(), root),
		peerRR:     uint32(r.now().UnixNano()) % uint32(r.n),
	}
	r.askSync()
}

// nextPeer round-robins over the other replicas.
func (r *Replica) nextPeer(s *syncState) uint32 {
	for {
		s.peerRR = (s.peerRR + 1) % uint32(r.n)
		if s.peerRR != r.id {
			return s.peerRR
		}
	}
}

// askSync (re)issues the outstanding fetches.
func (r *Replica) askSync() {
	s := r.sync
	if s == nil {
		return
	}
	s.lastAsk = r.now()
	if s.meta == nil {
		f := wire.Fetch{Seq: s.seq, Level: metaLevel, Replica: r.id}
		r.sendToReplica(r.nextPeer(s), r.sealNone(wire.MTFetch, f.Marshal()))
	}
	for _, ref := range s.syncer.Pending() {
		f := wire.Fetch{Seq: s.seq, Level: uint32(ref.Level), Index: uint32(ref.Index), Replica: r.id}
		r.sendToReplica(r.nextPeer(s), r.sealNone(wire.MTFetch, f.Marshal()))
	}
	r.maybeFinishSync()
}

// resendSync retries a stalled transfer.
func (r *Replica) resendSync(now time.Time) {
	if r.sync == nil {
		return
	}
	if now.Sub(r.sync.lastAsk) > r.cfg.Opts.StatusInterval {
		r.askSync()
	}
}

// onFetch serves state-transfer requests from a retained snapshot.
func (r *Replica) onFetch(env *wire.Envelope) {
	f, err := wire.UnmarshalFetch(env.Payload)
	if err != nil || int(f.Replica) >= r.n {
		return
	}
	ck := r.ckpts[f.Seq]
	if ck == nil || !ck.mine {
		// The requested checkpoint is gone (garbage-collected past it).
		// Hand the requester the current stable proof so it retargets.
		if f.Seq < r.lastStable {
			for _, raw := range r.stableProof {
				_ = r.conn.Send(r.cfg.Replicas[f.Replica].Addr, raw)
			}
		}
		return
	}
	switch {
	case f.Level == metaLevel:
		resp := wire.StatePage{Seq: f.Seq, Index: metaLevel, Data: ck.meta}
		r.sendToReplica(f.Replica, r.sealNone(wire.MTStatePage, resp.Marshal()))
	case f.Level == 0:
		data, err := ck.snap.Page(int(f.Index))
		if err != nil {
			return
		}
		resp := wire.StatePage{Seq: f.Seq, Index: f.Index, Data: data}
		r.sendToReplica(f.Replica, r.sealNone(wire.MTStatePage, resp.Marshal()))
	default:
		children, err := ck.snap.Children(int(f.Level), int(f.Index))
		if err != nil {
			return
		}
		resp := wire.StateNode{Seq: f.Seq, Level: f.Level, Index: f.Index, Children: children}
		r.sendToReplica(f.Replica, r.sealNone(wire.MTStateNode, resp.Marshal()))
	}
}

// onStateNode feeds a fetched Merkle node into the syncer.
func (r *Replica) onStateNode(env *wire.Envelope) {
	s := r.sync
	if s == nil {
		return
	}
	m, err := wire.UnmarshalStateNode(env.Payload)
	if err != nil || m.Seq != s.seq {
		return
	}
	ref := state.NodeRef{Level: int(m.Level), Index: int(m.Index)}
	if err := s.syncer.OnNode(ref, m.Children); err != nil {
		return // forged or stale; the retry timer will re-ask elsewhere
	}
	r.askSyncChildren()
}

// askSyncChildren issues fetches for newly discovered differences without
// waiting for the retry timer.
func (r *Replica) askSyncChildren() {
	s := r.sync
	if s == nil {
		return
	}
	for _, ref := range s.syncer.Pending() {
		f := wire.Fetch{Seq: s.seq, Level: uint32(ref.Level), Index: uint32(ref.Index), Replica: r.id}
		r.sendToReplica(r.nextPeer(s), r.sealNone(wire.MTFetch, f.Marshal()))
	}
	r.maybeFinishSync()
}

// onStatePage feeds a fetched page (or the metadata blob) into the sync.
func (r *Replica) onStatePage(env *wire.Envelope) {
	s := r.sync
	if s == nil {
		return
	}
	m, err := wire.UnmarshalStatePage(env.Payload)
	if err != nil || m.Seq != s.seq {
		return
	}
	if m.Index == metaLevel {
		if s.meta == nil && crypto.DigestOf(m.Data) == s.metaDigest {
			s.meta = m.Data
		}
		r.maybeFinishSync()
		return
	}
	apply, err := s.syncer.OnPage(int(m.Index), m.Data)
	if err != nil || !apply {
		return
	}
	r.stats.PagesFetched++
	if err := r.region.ApplyPage(int(m.Index), m.Data); err != nil {
		return
	}
	r.maybeFinishSync()
}

// maybeFinishSync installs the transferred checkpoint once both the pages
// and the metadata blob are verified.
func (r *Replica) maybeFinishSync() {
	s := r.sync
	if s == nil || s.meta == nil || !s.syncer.Done() {
		return
	}
	if err := r.unmarshalMeta(s.meta); err != nil {
		// The meta blob matched its digest but failed to parse: the
		// agreed checkpoint would have to be corrupt. Abandon the sync.
		r.sync = nil
		r.emit(trace.Event{Kind: trace.EvStateTransferAbort, View: r.view, Seq: s.seq, Count: r.stats.PagesFetched})
		return
	}
	r.sync = nil
	r.lastExec = s.seq
	if r.committedContig < s.seq {
		r.committedContig = s.seq
	}
	if r.seq < s.seq {
		r.seq = s.seq
	}
	// Install the checkpoint record as ours so we can serve fetches and
	// vote for it.
	snap := r.region.Snapshot(s.seq)
	ck := &ckptRecord{
		seq:        s.seq,
		digest:     s.digest,
		root:       s.root,
		metaDigest: s.metaDigest,
		meta:       s.meta,
		snap:       snap,
		votes:      make(map[uint32][]byte),
		mine:       true,
		stable:     true,
	}
	if prev := r.ckpts[s.seq]; prev != nil {
		for id, raw := range prev.votes {
			ck.votes[id] = raw
		}
	}
	r.ckpts[s.seq] = ck
	r.lastStable = s.seq
	r.stableProof = s.proof
	r.emit(trace.Event{Kind: trace.EvStateTransferFinish, View: r.view, Seq: s.seq, Count: r.stats.PagesFetched})
	// The installed checkpoint is stable by proof: report it like a
	// makeStable promotion.
	r.emit(trace.Event{Kind: trace.EvCheckpointStable, View: r.view, Seq: s.seq, Digest: s.digest})
	r.persistStable(ck)
	r.gcLog()
	// The installed pages bypassed the application's flusher.
	r.flushRewrite()
	// Entries above the checkpoint may already be agreed in the log;
	// resume execution.
	r.tryExecute()
}

// onStatus reacts to a peer's progress gossip (decoded and authenticated
// by the ingress pipeline) with retransmissions.
func (r *Replica) onStatus(st *wire.Status) {
	// Peer lags on stable checkpoints: hand it the proof so it can
	// state-transfer.
	if st.LastStable < r.lastStable && len(r.stableProof) > 0 {
		for _, raw := range r.stableProof {
			_ = r.conn.Send(r.cfg.Replicas[st.Replica].Addr, raw)
		}
	}
	// Peer is behind in the current view: retransmit our log messages
	// for a bounded window above its execution point. A peer level with us
	// gets the entries we have both been sitting on for more than a
	// StatusInterval: agreement is short of a vote somewhere, and with a
	// replica down one lost pre-prepare is enough for that.
	if st.View == r.view && st.LastExec <= r.lastExec && !r.inViewChange {
		stuck := st.LastExec == r.lastExec
		limit := st.LastExec + 16
		if !stuck && limit > r.lastExec {
			limit = r.lastExec
		}
		for s := st.LastExec + 1; s <= limit; s++ {
			e := r.log[s]
			if e == nil || e.pp == nil {
				continue
			}
			if stuck && r.tickAt.Sub(e.ppAt) <= r.cfg.Opts.StatusInterval {
				continue // still in flight
			}
			// Retransmit the pre-prepare in its original form: for
			// big requests this carries digests only — the §2.4
			// robustness gap is preserved deliberately.
			_ = r.conn.Send(r.cfg.Replicas[st.Replica].Addr, e.ppRaw)
			if e.sentPrepare {
				p := wire.Prepare{View: e.view, Seq: e.seq, Digest: e.digest, Replica: r.id}
				r.sendToReplica(st.Replica, r.sealToReplicas(wire.MTPrepare, p.Marshal()))
			}
			if e.sentCommit {
				c := wire.Commit{View: e.view, Seq: e.seq, Digest: e.digest, Replica: r.id}
				r.sendToReplica(st.Replica, r.sealToReplicas(wire.MTCommit, c.Marshal()))
			}
		}
	}
	// Peer is in an older view: let it catch up with the new-view proof.
	if st.View < r.view && r.newViewRaw != nil {
		_ = r.conn.Send(r.cfg.Replicas[st.Replica].Addr, r.newViewRaw)
	}
	// If we are mid view change, remind peers of our vote.
	if r.inViewChange && st.View <= r.vcTarget {
		if votes := r.viewChanges[r.vcTarget]; votes != nil {
			if own := votes[r.id]; own != nil {
				_ = r.conn.Send(r.cfg.Replicas[st.Replica].Addr, own.raw)
			}
		}
	}
}
