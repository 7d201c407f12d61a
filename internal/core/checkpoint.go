package core

import (
	"repro/internal/crypto"
	"repro/internal/trace"
	"repro/internal/wire"
)

// recordLocalCheckpoint snapshots the region and metadata as checkpoint
// seq, without broadcasting (used for genesis).
func (r *Replica) recordLocalCheckpoint(seq uint64) *ckptRecord {
	// Deterministic dedup-window compaction happens exactly here, before
	// the metadata is serialized: every replica reaches this point with
	// the same windows at the same seq, so the compacted set — and the
	// digest over it — agree.
	r.compactClientWins()
	snap := r.region.Snapshot(seq)
	meta := r.marshalMeta()
	metaDigest := crypto.DigestOf(meta)
	root := snap.Root()
	ck := &ckptRecord{
		seq:        seq,
		digest:     wire.CompositeStateDigest(root, metaDigest),
		root:       root,
		metaDigest: metaDigest,
		meta:       meta,
		snap:       snap,
		votes:      make(map[uint32][]byte),
		mine:       true,
	}
	if prev, ok := r.ckpts[seq]; ok {
		// Votes may have arrived before our own execution got here.
		for id, raw := range prev.votes {
			ck.votes[id] = raw
		}
	}
	r.ckpts[seq] = ck
	return ck
}

// takeCheckpoint produces and broadcasts the checkpoint at seq (§2.1).
func (r *Replica) takeCheckpoint(seq uint64) {
	ck := r.recordLocalCheckpoint(seq)
	r.emit(trace.Event{Kind: trace.EvCheckpoint, View: r.view, Seq: seq, Digest: ck.digest})
	msg := wire.Checkpoint{
		Seq:         seq,
		StateDigest: ck.digest,
		Root:        ck.root,
		MetaDigest:  ck.metaDigest,
		Replica:     r.id,
	}
	env := r.sealSigned(wire.MTCheckpoint, msg.Marshal())
	ck.votes[r.id] = env.Raw()
	r.broadcast(env)
	r.tryStable(ck)
}

// onCheckpoint records a peer's checkpoint vote (decoded, consistency-
// checked and signature-verified by the ingress pipeline).
func (r *Replica) onCheckpoint(m *wire.Checkpoint, raw []byte) {
	if m.Seq <= r.lastStable {
		return // old news
	}
	ck, ok := r.ckpts[m.Seq]
	if !ok {
		ck = &ckptRecord{
			seq:        m.Seq,
			digest:     m.StateDigest,
			root:       m.Root,
			metaDigest: m.MetaDigest,
			votes:      make(map[uint32][]byte),
		}
		r.ckpts[m.Seq] = ck
	}
	if ck.digest == m.StateDigest {
		ck.votes[m.Replica] = raw
	} else {
		// A conflicting digest: if 2f+1 replicas agree on the other
		// value, this replica's state has diverged; count separately.
		r.countForeignVote(m, raw)
		return
	}
	r.tryStable(ck)
}

// foreignVotes tracks checkpoint votes whose digest disagrees with the
// local record, keyed by (seq, digest).
type foreignKey struct {
	seq    uint64
	digest crypto.Digest
}

func (r *Replica) countForeignVote(m *wire.Checkpoint, raw []byte) {
	if r.foreign == nil {
		r.foreign = make(map[foreignKey]map[uint32][]byte)
	}
	k := foreignKey{m.Seq, m.StateDigest}
	votes, ok := r.foreign[k]
	if !ok {
		votes = make(map[uint32][]byte)
		r.foreign[k] = votes
	}
	votes[m.Replica] = raw
	if len(votes) >= r.quorum {
		// The group agreed on a state this replica does not have:
		// it must state-transfer to the proven checkpoint.
		proof := make([][]byte, 0, len(votes))
		for _, v := range votes {
			proof = append(proof, v)
		}
		r.startSync(m.Seq, m.StateDigest, m.Root, m.MetaDigest, proof)
	}
}

// tryStable promotes a checkpoint with a 2f+1 proof to stable.
func (r *Replica) tryStable(ck *ckptRecord) {
	if ck.stable || len(ck.votes) < r.quorum || ck.seq <= r.lastStable {
		return
	}
	ck.stable = true
	if !ck.mine {
		// Proof exists but this replica has not produced the matching
		// checkpoint. Remember it; maybeRecoverFromLag decides whether
		// to wait for the log to catch us up or to transfer state
		// (§2.4 recovery path).
		if r.remoteStable == nil || ck.seq > r.remoteStable.seq {
			r.remoteStable = ck
		}
		r.maybeRecoverFromLag()
		return
	}
	r.makeStable(ck)
}

// maybeRecoverFromLag starts a state transfer to the newest proven remote
// checkpoint when the replica cannot make progress by replaying the log:
// it is wedged on a missing big-request body (§2.4), or it trails by at
// least a full checkpoint interval (e.g. after a restart, §2.3).
func (r *Replica) maybeRecoverFromLag() {
	ck := r.remoteStable
	if ck == nil {
		return
	}
	if r.sync != nil {
		// A transfer is running. If the group's stable checkpoint moved
		// past our target, the peers may have garbage-collected the old
		// snapshot — retarget to the newer one.
		if ck.seq > r.sync.seq {
			r.retargetSync(ck)
		}
		return
	}
	if ck.seq <= r.lastExec {
		r.remoteStable = nil
		return
	}
	behind := ck.seq - r.lastExec
	if !r.wedged() && behind < r.cfg.Opts.CheckpointInterval {
		return // the log (plus status retransmission) will catch us up
	}
	r.retargetSync(ck)
}

// retargetSync starts (or redirects) a state transfer at the given proven
// checkpoint.
func (r *Replica) retargetSync(ck *ckptRecord) {
	proof := make([][]byte, 0, len(ck.votes))
	for _, v := range ck.votes {
		proof = append(proof, v)
	}
	r.remoteStable = nil
	r.startSync(ck.seq, ck.digest, ck.root, ck.metaDigest, proof)
}

// makeStable installs a stable checkpoint: advance the low watermark and
// garbage-collect the log (§2.1).
func (r *Replica) makeStable(ck *ckptRecord) {
	if ck.seq <= r.lastStable {
		return
	}
	r.lastStable = ck.seq
	r.emit(trace.Event{Kind: trace.EvCheckpointStable, View: r.view, Seq: ck.seq, Digest: ck.digest})
	proof := make([][]byte, 0, len(ck.votes))
	for _, v := range ck.votes {
		proof = append(proof, v)
	}
	r.stableProof = proof
	if r.committedContig < ck.seq {
		r.committedContig = ck.seq
	}
	r.persistStable(ck)
	r.gcLog()
	if r.isPrimary() {
		if r.seq < r.lastStable {
			r.seq = r.lastStable
		}
		r.tryPropose()
	}
}

// gcLog drops everything at or below the stable checkpoint.
func (r *Replica) gcLog() {
	for s := range r.log {
		if s <= r.lastStable {
			delete(r.log, s)
		}
	}
	for s := range r.ckpts {
		if s < r.lastStable {
			delete(r.ckpts, s)
		}
	}
	for d, b := range r.bigBodies {
		if b.executedSeq != 0 && b.executedSeq <= r.lastStable {
			delete(r.bigBodies, d)
		}
	}
	for k := range r.foreign {
		if k.seq <= r.lastStable {
			delete(r.foreign, k)
		}
	}
	r.region.ReleaseBelow(r.lastStable)
}
