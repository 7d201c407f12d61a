package core

import (
	"bytes"

	"repro/internal/crypto"
	"repro/internal/wire"
)

// JoinSender is the envelope sender id used by clients that have not yet
// been admitted (their Join requests are authenticated by the public key
// embedded in the join body, not by the node table).
const JoinSender = ^uint32(0)

// sealToReplicas authenticates an envelope destined to the replica group.
// With MACs it carries an authenticator of one tag per replica; otherwise
// a signature.
func (r *Replica) sealToReplicas(t wire.MsgType, payload []byte) *wire.Envelope {
	env := &wire.Envelope{Type: t, Sender: r.id, Payload: payload}
	if r.cfg.Opts.UseMACs {
		env.SealMAC(r.replicaKeys)
	} else {
		env.SealSig(r.kp)
	}
	return env
}

// sealSigned authenticates an envelope with a signature regardless of the
// MAC option. View changes, new views, checkpoints, join challenges and
// session hellos are always signed: they outlive the session keys of the
// moment (they are replayed to recovering replicas as proofs).
func (r *Replica) sealSigned(t wire.MsgType, payload []byte) *wire.Envelope {
	env := &wire.Envelope{Type: t, Sender: r.id, Payload: payload}
	env.SealSig(r.kp)
	return env
}

// sealWithSession authenticates a reply to one client from snapshotted
// session material: a single-tag authenticator under the client's session
// key, or a signature when useMAC is false. Safe off the protocol loop
// (replies are sealed on the reaper goroutine and the read-only path
// seals on a shard worker, from values captured at submission time).
func (r *Replica) sealWithSession(t wire.MsgType, payload []byte, session crypto.SessionKey, useMAC bool) *wire.Envelope {
	env := &wire.Envelope{Type: t, Sender: r.id, Payload: payload}
	if useMAC {
		env.SealMAC1(session)
	} else {
		env.SealSig(r.kp)
	}
	return env
}

// sealNone wraps unauthenticated payloads (state transfer data, verified
// against agreed digests instead).
func (r *Replica) sealNone(t wire.MsgType, payload []byte) *wire.Envelope {
	return &wire.Envelope{Type: t, Sender: r.id, Payload: payload, Kind: wire.AuthNone}
}

// Inbound verification lives in the ingress pipeline (ingress.go): the
// worker pool authenticates every packet against immutable replica key
// material and the clientAuthTable before the protocol loop sees it.

// verifySignedReplica authenticates an always-signed replica envelope
// (view change, checkpoint, ...). The protocol loop uses it on stored raw
// envelopes (view-change votes inside a new-view proof); live traffic is
// verified by the ingress workers with the same routine.
func (r *Replica) verifySignedReplica(env *wire.Envelope) bool {
	return r.ingress.verifySignedReplica(env)
}

// pubKeyEqual reports whether two node identities are the same key pair.
func pubKeyEqual(a, b crypto.PublicKey) bool {
	return bytes.Equal(a.Sign, b.Sign) && bytes.Equal(a.DH, b.DH)
}

// reverifyClient re-runs client authentication inside the protocol loop
// for packets the ingress could not clear: the packet may have raced a
// session install or join whose effects the loop has applied by now, so
// verification at processing time (the pre-pipeline semantics) is
// authoritative.
func (r *Replica) reverifyClient(env *wire.Envelope, client *nodeEntry) bool {
	return verifyClientEnvelope(env, r.id, clientAuthOf(client))
}
