package core

import (
	"encoding/hex"

	"repro/internal/crypto"
	"repro/internal/trace"
	"repro/internal/wire"
)

// joinChallengeDigest derives the phase-1 challenge deterministically from
// the ordered request, so every correct replica issues the same value
// (§3.1: replicas must process joins identically).
func joinChallengeDigest(pubRaw []byte, nonce uint64, seq uint64) crypto.Digest {
	w := wire.NewWriter(len(pubRaw) + 16)
	w.Bytes32(pubRaw)
	w.U64(nonce)
	w.U64(seq)
	return crypto.DigestOf([]byte("join-challenge"), w.Bytes())
}

// JoinResponseDigest computes the phase-2 solution the client must echo:
// possession of the challenge (received at the claimed address) and of the
// nonce proves address ownership.
func JoinResponseDigest(challenge crypto.Digest, nonce uint64) crypto.Digest {
	w := wire.NewWriter(40)
	w.Raw(challenge[:])
	w.U64(nonce)
	return crypto.DigestOf([]byte("join-response"), w.Bytes())
}

// onJoinRequest authenticates a Join system request against the key
// embedded in its body, then feeds it into ordering like any other
// request (§3.1: a single total order across application and system
// requests).
func (r *Replica) onJoinRequest(env *wire.Envelope, req *wire.Request) {
	code, body, ok := wire.SplitSysOp(req.Op)
	if !ok || code != wire.OpJoin {
		return
	}
	op, err := wire.UnmarshalJoinOp(body)
	if err != nil {
		return
	}
	pub, err := crypto.UnmarshalPublicKey(op.PubKey)
	if err != nil {
		return
	}
	if env.Kind != wire.AuthSig || !crypto.Verify(pub, env.SignedBytes(), env.Sig) {
		// The envelope does not verify against the credential it
		// presents: a fabricated join identity. Typed separately from
		// generic auth failures so the adversarial suite can assert the
		// drop without protocol activity.
		r.stats.DroppedBadAuth++
		r.stats.DroppedForgedJoins++
		return
	}
	// Retransmissions: a join that already progressed is answered from
	// the pending-join record or the join reply cache instead of being
	// ordered again.
	pkKey := pubKeyKey(op.PubKey)
	switch op.Phase {
	case wire.JoinPhaseHello:
		if pj := r.pendingJoins[pkKey]; pj != nil && pj.nonce == op.Nonce {
			ch := wire.JoinChallenge{Replica: r.id, Challenge: pj.challenge}
			r.sendToAddr(pj.addr, r.sealSigned(wire.MTJoinChall, ch.Marshal()))
			return
		}
	case wire.JoinPhaseResponse:
		if cached := r.joinReplies[pkKey]; cached != nil && cached.rep.Timestamp == req.Timestamp {
			r.sendSealedReply(cached.addr, cached.rep, crypto.SessionKey{}, false)
			return
		}
	}
	// Join requests are always multicast by the client (big path):
	// store the body and let the primary order it.
	r.bigBodies[req.Digest()] = &bigBody{req: req}
	if r.isPrimary() && !r.inViewChange {
		key := "join:" + pubKeyKey(op.PubKey) + ":" + hexU64(op.Nonce) + ":" + hexU64(uint64(op.Phase))
		if r.primaryJoinSeen == nil {
			r.primaryJoinSeen = make(map[string]bool)
		}
		if r.primaryJoinSeen[key] {
			return
		}
		r.primaryJoinSeen[key] = true
		r.pendingQueue = append(r.pendingQueue, req)
		r.tryPropose()
	} else {
		r.notePending(reqKey{JoinSender, req.Timestamp}, nil)
	}
}

// pubKeyKey keys pending joins by the digest of the joining public key.
func pubKeyKey(pubRaw []byte) string {
	d := crypto.DigestOf(pubRaw)
	return hex.EncodeToString(d[:])
}

func hexU64(v uint64) string {
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[7-i] = byte(v >> (8 * i))
	}
	return hex.EncodeToString(b[:])
}

// executeSystem applies an ordered system request (Join/Leave).
func (r *Replica) executeSystem(req *wire.Request, nd NonDetValues, tentative bool, seq uint64) *wire.Reply {
	code, body, ok := wire.SplitSysOp(req.Op)
	if !ok {
		return nil
	}
	switch code {
	case wire.OpJoin:
		op, err := wire.UnmarshalJoinOp(body)
		if err != nil {
			return nil
		}
		switch op.Phase {
		case wire.JoinPhaseHello:
			return r.execJoinHello(req, op, nd, seq)
		case wire.JoinPhaseResponse:
			return r.execJoinResponse(req, op, nd, tentative)
		}
	case wire.OpLeave:
		return r.execLeave(req, tentative)
	}
	return nil
}

// execJoinHello runs phase 1: record the pending join and send the
// deterministic challenge to the claimed address.
func (r *Replica) execJoinHello(req *wire.Request, op *wire.JoinOp, nd NonDetValues, seq uint64) *wire.Reply {
	pub, err := crypto.UnmarshalPublicKey(op.PubKey)
	if err != nil {
		return nil
	}
	key := pubKeyKey(op.PubKey)
	challenge := joinChallengeDigest(op.PubKey, op.Nonce, seq)
	r.pendingJoins[key] = &pendingJoin{
		addr:      op.Addr,
		pubRaw:    append([]byte(nil), op.PubKey...),
		pub:       pub,
		nonce:     op.Nonce,
		appAuth:   append([]byte(nil), op.AppAuth...),
		challenge: challenge,
		ts:        uint64(nd.Time.UnixNano()),
	}
	ch := wire.JoinChallenge{Replica: r.id, Seq: seq, Challenge: challenge}
	env := r.sealSigned(wire.MTJoinChall, ch.Marshal())
	r.sendToAddr(op.Addr, env)
	return nil
}

// execJoinResponse runs phase 2: verify the challenge solution, authorize
// at the application level, enforce single-session-per-principal, evict
// stale sessions if the table is full, allocate the identifier, and admit
// the client (§3.1, Fig. 2).
func (r *Replica) execJoinResponse(req *wire.Request, op *wire.JoinOp, nd NonDetValues, tentative bool) *wire.Reply {
	key := pubKeyKey(op.PubKey)
	pj, ok := r.pendingJoins[key]
	result := wire.JoinResult{}
	switch {
	case !ok:
		result.Reason = "no pending join"
	case op.Response != JoinResponseDigest(pj.challenge, pj.nonce):
		result.Reason = "challenge response mismatch"
	default:
		principal := ""
		authorized := true
		if auth, okA := r.app.(Authorizer); okA {
			principal, authorized = auth.Authorize(pj.appAuth)
		}
		if !authorized {
			result.Reason = "authorization denied"
			break
		}
		// Single live session per principal: terminate the others.
		if principal != "" {
			for _, old := range r.nodes.byPrincipal(principal) {
				r.nodes.remove(old.ID)
				r.unpublishClientAuth(old.ID)
				delete(r.clientWins, old.ID)
				delete(r.primaryQueued, old.ID)
				r.emit(trace.Event{Kind: trace.EvSessionEvict, ClientID: old.ID})
			}
		}
		if r.nodes.full() {
			// Evict sessions idle longer than the staleness threshold,
			// measured against the join's primary timestamp (§3.1).
			cutoff := uint64(0)
			if stale := r.cfg.Opts.SessionStaleAfter; stale > 0 && pj.ts > uint64(stale) {
				cutoff = pj.ts - uint64(stale)
			}
			for _, old := range r.nodes.staleBefore(cutoff) {
				r.nodes.remove(old.ID)
				r.unpublishClientAuth(old.ID)
				delete(r.clientWins, old.ID)
				delete(r.primaryQueued, old.ID)
				r.emit(trace.Event{Kind: trace.EvSessionEvict, ClientID: old.ID})
			}
		}
		if r.nodes.full() {
			result.Reason = "node table full"
			break
		}
		id := r.allocateClientID(op.PubKey)
		admitted := &nodeEntry{
			ID:         id,
			Addr:       pj.addr,
			Pub:        pj.pub,
			Principal:  principal,
			LastActive: uint64(nd.Time.UnixNano()),
			Dynamic:    true,
		}
		r.nodes.add(admitted)
		r.publishClientAuth(admitted)
		result.ClientID = id
		result.Accepted = true
		r.emit(trace.Event{Kind: trace.EvSessionJoin, ClientID: id})
	}
	delete(r.pendingJoins, key)

	rep := &wire.Reply{
		View:      r.view,
		Timestamp: req.Timestamp,
		ClientID:  JoinSender,
		Replica:   r.id,
		Result:    result.Marshal(),
	}
	if tentative {
		rep.Flags |= wire.FlagTentative
	}
	// The reply is addressed by the join's claimed address; it is
	// signed (no session exists yet).
	addr := ""
	if ok {
		addr = pj.addr
	}
	if addr != "" {
		if r.joinReplies == nil {
			r.joinReplies = make(map[string]*joinReply)
		}
		r.joinReplies[key] = &joinReply{rep: rep, addr: addr}
		r.sendSealedReply(addr, rep, crypto.SessionKey{}, false)
	}
	return rep
}

// joinReply caches the outcome of an executed join for retransmissions
// (transient; a restarted replica relies on the client restarting the
// join).
type joinReply struct {
	rep  *wire.Reply
	addr string
}

// execLeave removes the client from the node table; all further
// communication from it is refused (§3.1).
func (r *Replica) execLeave(req *wire.Request, tentative bool) *wire.Reply {
	client := r.nodes.get(req.ClientID)
	if client == nil || !client.Dynamic {
		return nil
	}
	rep := &wire.Reply{
		View:      r.view,
		Timestamp: req.Timestamp,
		ClientID:  req.ClientID,
		Replica:   r.id,
		Result:    []byte("bye"),
	}
	if tentative {
		rep.Flags |= wire.FlagTentative
	}
	r.sendReply(rep, client)
	r.nodes.remove(req.ClientID)
	r.unpublishClientAuth(req.ClientID)
	delete(r.clientWins, req.ClientID)
	delete(r.primaryQueued, req.ClientID)
	r.emit(trace.Event{Kind: trace.EvSessionLeave, ClientID: req.ClientID})
	return rep
}

// allocateClientID picks a deterministic, unused identifier for a new
// client. Identifiers live outside the replica range and the sentinel.
func (r *Replica) allocateClientID(pubRaw []byte) uint32 {
	for {
		r.idSeed++
		d := crypto.DigestOf([]byte("client-id"), pubRaw, []byte{
			byte(r.idSeed), byte(r.idSeed >> 8), byte(r.idSeed >> 16), byte(r.idSeed >> 24),
			byte(r.idSeed >> 32), byte(r.idSeed >> 40), byte(r.idSeed >> 48), byte(r.idSeed >> 56),
		})
		id := uint32(d[0])<<24 | uint32(d[1])<<16 | uint32(d[2])<<8 | uint32(d[3])
		if int(id) < r.n || id == JoinSender {
			continue
		}
		if r.nodes.get(id) != nil {
			continue
		}
		return id
	}
}

// onSessionHello (re-)establishes a client's MAC session keys. Clients
// retransmit hellos blindly on a timer; a replica that restarted regains
// the ability to authenticate the client only when the next hello arrives
// — the recovery behaviour of §2.3. The ingress worker already verified
// the hello's signature and derived the shared key; the loop re-checks
// that the entry's identity is still the one the worker verified against
// (the client could have left and another joined under the same id in the
// meantime), then installs the key.
func (r *Replica) onSessionHello(m *inMsg) {
	h := m.hello
	client := r.nodes.get(h.ClientID)
	if client == nil || int(h.ClientID) < r.n {
		return
	}
	sk := m.sessionKey
	if m.authPending {
		// The worker could not clear the hello (unknown client or
		// failed signature against its view). An unmoved view means
		// its verdict stands — and an unknown client with an unmoved
		// view cannot reach here (nodes.get above would be nil), so
		// this counts exactly the definitive signature failures.
		if r.ingress.clients.generation() == m.authGen {
			r.stats.DroppedBadAuth++
			return
		}
		// The view moved: verify and derive here, against the loop's
		// current table.
		env := &m.env
		if env.Kind != wire.AuthSig || !crypto.Verify(client.Pub, env.SignedBytes(), env.Sig) {
			r.stats.DroppedBadAuth++
			return
		}
		ephemeral, err := crypto.UnmarshalPublicKey(h.PubKey)
		if err != nil {
			return
		}
		sk, err = r.kp.SharedKey(ephemeral)
		if err != nil {
			return
		}
	} else if !pubKeyEqual(client.Pub, m.verifiedPub) {
		// The entry's identity changed between verification and
		// processing (leave + rejoin under the same id): the worker's
		// verification no longer vouches for this entry.
		return
	}
	client.Session = sk
	client.HasSession = true
	if h.Addr != "" {
		client.Addr = h.Addr
	}
	r.nodes.touchSession(client)
	r.enforceSessionCap()
	r.publishClientAuth(client)
	r.emit(trace.Event{Kind: trace.EvSessionHello, ClientID: client.ID})
}

// enforceSessionCap evicts least-recently-active MAC sessions until the
// table fits MaxClientSessions. Eviction drops only the (local, transient)
// key material: the entry — and with it the client's identity and dedup
// window — survives, so the client's next periodic hello re-establishes
// the session exactly like post-restart recovery (§2.3).
func (r *Replica) enforceSessionCap() {
	cap := r.cfg.MaxClientSessions()
	if cap <= 0 {
		return
	}
	for r.nodes.sessionCount() > cap {
		old := r.nodes.oldestSession()
		if old == nil {
			return
		}
		r.nodes.unlinkSession(old)
		old.HasSession = false
		old.Session = crypto.SessionKey{}
		// Republish without session key material: requests signed under
		// the long-term key still verify; MAC'd ones fail until the next
		// hello, as after a restart.
		r.publishClientAuth(old)
		r.emit(trace.Event{Kind: trace.EvSessionEvict, ClientID: old.ID})
	}
}
