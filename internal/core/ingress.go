package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/crypto"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// This file implements the ingress stage of the replica's staged packet
// pipeline: a pool of verifier workers that pulls raw datagrams off the
// transport, unmarshals envelopes, performs every piece of *stateless*
// authentication (MAC authenticator entries, signatures, digest
// precomputation, session-key derivation) in parallel, and hands
// pre-verified, typed messages to the protocol loop in arrival order.
//
// Ownership rules:
//   - Workers touch only immutable replica material (id, group size,
//     pairwise replica keys, replica public keys, the long-term key pair)
//     plus the clientAuthTable, a concurrently readable view of client
//     key material that the protocol loop republishes after mutations.
//   - A message instance (envelope, decoded payload, memoized digests) is
//     owned by exactly one goroutine at a time: the worker until it marks
//     the message done, the protocol loop afterwards.
//   - Delivery order equals transport arrival order (a reorder buffer
//     re-sequences the workers' out-of-order completions), so per-sender
//     FIFO into the protocol loop is preserved exactly as it was when the
//     loop read the socket directly.

// ingressDepth bounds the number of packets in flight inside the pipeline
// (being verified or awaiting in-order delivery). When it fills, the
// dispatcher stops reading the socket and the transport sheds load the
// same way it always has: receive-buffer overflow.
const ingressDepth = 512

// verdict is a worker's decision about one packet.
type verdict uint8

const (
	// vDeliver hands the verified, decoded message to the protocol loop.
	vDeliver verdict = iota
	// vDropBadAuth drops the packet and counts it in DroppedBadAuth.
	vDropBadAuth
	// vDropMalformed drops a packet that failed structural decoding
	// before (or instead of) authentication — garbage framing, truncated
	// envelopes, undecodable request bodies. Counted in DroppedMalformed
	// so chaos assertions can tell forged MACs from noise.
	vDropMalformed
	// vIgnore drops the packet silently (stale, malformed-but-
	// authenticated, or not replica-bound) — mirroring the silent
	// returns of the pre-pipeline handlers. Counted in DroppedIgnored.
	vIgnore
)

// inMsg is one datagram moving through the pipeline. The worker fills the
// typed payload field matching the envelope type; cold-path messages
// (view changes, state transfer) are decoded by the protocol loop, which
// keeps their raw forms anyway.
//
// Instances recycle through inMsgPool: the envelope and the fixed-size
// message types decode into inline storage, so the steady-state per-packet
// allocation count on the ingress side is zero for replica traffic. The
// protocol loop returns every delivered message with putInMsg after
// handling — nothing a handler retains (heap-decoded requests and
// pre-prepares, raw buffers) points back into the inMsg.
type inMsg struct {
	raw []byte
	// pkt is the transport packet raw came from; releaseRaw hands its
	// (possibly pooled) buffer back once the message is finished with.
	pkt transport.Packet
	// env is decoded in place (no per-packet Envelope allocation); its
	// Payload and Sig alias raw.
	env wire.Envelope

	// req and pp stay heap-allocated: the protocol loop retains them
	// (pending queues, big-request bodies, the agreement log) beyond the
	// message's lifetime.
	req *wire.Request
	pp  *wire.PrePrepare

	// The fixed-size types decode into the inline *Store fields; the
	// pointers are nil or point at those stores.
	prep   *wire.Prepare
	cmt    *wire.Commit
	ckpt   *wire.Checkpoint
	status *wire.Status

	prepStore   wire.Prepare
	cmtStore    wire.Commit
	ckptStore   wire.Checkpoint
	statusStore wire.Status
	helloStore  wire.SessionHello

	// Session establishment: the worker verifies the hello and derives
	// the shared key (the ECDH is the expensive part); the loop installs
	// it after re-checking the entry against verifiedPub.
	hello      *wire.SessionHello
	sessionKey crypto.SessionKey

	// verifiedPub is the identity a client packet (request or hello)
	// was verified against. The loop compares it with the node table's
	// current entry before acting: if the id was vacated and reassigned
	// while the packet sat in the pipeline, the worker's verification
	// no longer vouches for the present entry.
	verifiedPub crypto.PublicKey

	// authPending marks client packets whose verification failed at the
	// worker: the published auth view may lag a session install or join
	// that is ahead of this packet in arrival order but not yet applied
	// by the loop. authGen is the view generation the worker verified
	// against; the loop re-verifies only if the view changed while the
	// packet was in flight (restoring the pre-pipeline semantics of
	// verification at processing time) and otherwise lets the worker's
	// verdict stand — so hostile floods cost the loop a counter
	// comparison, not a re-verification, per packet.
	authPending bool
	authGen     uint64

	// arriveNs is the flight-recorder arrival mark, captured when the
	// packet left the transport (recorder nanos; 0 with no recorder).
	// The request's identity is only known after decode, so the mark
	// rides along until processRequest stamps it.
	arriveNs int64

	verdict verdict
	done    chan struct{}
}

// releaseRaw returns the message's receive buffer to the transport's
// pool. Only call sites that know the raw bytes are not retained — drops,
// and the protocol loop after handling message types whose decoded forms
// are full copies (requests, prepares, commits, status, hellos, state
// transfer) — may call it; everything else leaves the buffer to the
// garbage collector. The inline envelope still aliases the returned
// buffer until reset; nothing reads it after release.
func (m *inMsg) releaseRaw() {
	m.raw = nil
	m.pkt.Release()
}

// inMsgPool recycles message slots across packets. A slot's inline
// envelope keeps its Auth.Tags backing array and its done channel across
// uses, so the steady-state pipeline overhead per packet is zero
// allocations on the ingress side.
var inMsgPool = sync.Pool{New: func() any { return new(inMsg) }}

// getInMsg takes a recycled message slot and binds it to one packet.
func getInMsg(pkt transport.Packet) *inMsg {
	m := inMsgPool.Get().(*inMsg)
	m.raw = pkt.Data
	m.pkt = pkt
	return m
}

// putInMsg resets a message slot and returns it to the pool. The caller
// must be the slot's sole owner and must not touch it afterwards; anything
// a handler retained (heap-decoded requests / pre-prepares, raw buffers)
// is unaffected — only the slot itself is reused.
func putInMsg(m *inMsg) {
	m.raw = nil
	m.pkt = transport.Packet{}
	m.env.Reset()
	m.req = nil
	m.pp = nil
	m.prep = nil
	m.cmt = nil
	m.ckpt = nil
	m.status = nil
	m.hello = nil
	// The fixed-size stores hold no pointers except the hello's Addr and
	// PubKey; drop those so a parked slot doesn't pin them.
	m.helloStore = wire.SessionHello{}
	m.sessionKey = crypto.SessionKey{}
	m.verifiedPub = crypto.PublicKey{}
	m.authPending = false
	m.authGen = 0
	m.arriveNs = 0
	m.verdict = vDeliver
	// m.done is kept: the forwarder consumed its completion token, so the
	// channel is empty and ready for the slot's next trip through the
	// worker pool.
	inMsgPool.Put(m)
}

// release drops a message entirely: receive buffer back to the transport,
// slot back to the pool.
func (in *ingress) release(m *inMsg) {
	m.releaseRaw()
	putInMsg(m)
}

// clientAuth is an immutable value snapshot of one client's key material.
type clientAuth struct {
	pub        crypto.PublicKey
	session    crypto.SessionKey
	hasSession bool
}

// clientAuthTable is the ingress stage's concurrently readable view of
// the node table's client rows. The protocol loop owns the node table and
// republishes this view after every membership or session mutation;
// workers read value copies only, so no nodeEntry field is ever shared
// across goroutines.
type clientAuthTable struct {
	mu sync.RWMutex
	m  map[uint32]clientAuth
	// gen increments on every mutation. A worker records the generation
	// it verified against; an unchanged generation at processing time
	// means re-verification would return the same answer.
	gen uint64
}

func newClientAuthTable() *clientAuthTable {
	return &clientAuthTable{m: make(map[uint32]clientAuth)}
}

// lookup returns the entry for id plus the generation it was read at.
func (t *clientAuthTable) lookup(id uint32) (clientAuth, bool, uint64) {
	t.mu.RLock()
	ca, ok := t.m[id]
	g := t.gen
	t.mu.RUnlock()
	return ca, ok, g
}

func (t *clientAuthTable) generation() uint64 {
	t.mu.RLock()
	g := t.gen
	t.mu.RUnlock()
	return g
}

// set updates one client row (the per-hello fast path).
func (t *clientAuthTable) set(id uint32, ca clientAuth) {
	t.mu.Lock()
	t.m[id] = ca
	t.gen++
	t.mu.Unlock()
}

// remove drops one client row (leave, eviction).
func (t *clientAuthTable) remove(id uint32) {
	t.mu.Lock()
	delete(t.m, id)
	t.gen++
	t.mu.Unlock()
}

// reconcile updates the view in place to match the node table's client
// rows: refresh or insert every current client, delete vanished ids, one
// generation bump. Unlike a wholesale map swap it reuses the existing
// map's storage, so periodic bulk republishes (state transfer install,
// rollback) don't reallocate a table sized to the client population.
func (t *clientAuthTable) reconcile(nodes map[uint32]*nodeEntry, firstClient int) {
	t.mu.Lock()
	for id := range t.m {
		if _, ok := nodes[id]; !ok || int(id) < firstClient {
			delete(t.m, id)
		}
	}
	for id, e := range nodes {
		if int(id) < firstClient {
			continue // replicas authenticate via the static pairwise keys
		}
		t.m[id] = clientAuthOf(e)
	}
	t.gen++
	t.mu.Unlock()
}

// syncClientAuth republishes the node table's client rows to the ingress
// verifiers wholesale. The protocol loop calls it at construction and
// after bulk replacement (state transfer install, rollback); single-row
// changes use publishClientAuth / unpublishClientAuth instead.
func (r *Replica) syncClientAuth() {
	r.ingress.clients.reconcile(r.nodes.byID, r.n)
}

// publishClientAuth republishes one client row (hello, join admission:
// O(1) instead of rebuilding the whole view).
func (r *Replica) publishClientAuth(e *nodeEntry) {
	r.ingress.clients.set(e.ID, clientAuthOf(e))
}

// unpublishClientAuth withdraws one client row (leave, eviction).
func (r *Replica) unpublishClientAuth(id uint32) {
	r.ingress.clients.remove(id)
}

func clientAuthOf(e *nodeEntry) clientAuth {
	return clientAuth{pub: e.Pub, session: e.Session, hasSession: e.HasSession}
}

// ingress is the verification stage between transport and protocol loop.
type ingress struct {
	id          uint32
	n           int
	kp          *crypto.KeyPair
	replicaKeys []crypto.SessionKey
	replicaPubs []crypto.PublicKey
	clients     *clientAuthTable
	workers     int

	work  chan *inMsg   // dispatcher -> workers
	seq   chan *inMsg   // dispatcher -> forwarder, in arrival order
	out   chan *inMsg   // forwarder -> protocol loop
	pause chan struct{} // closed by beginSettle: stop intake, finish in-flight
	quit  chan struct{}
	wg    sync.WaitGroup

	droppedBadAuth   atomic.Uint64
	droppedMalformed atomic.Uint64
	droppedIgnored   atomic.Uint64

	// rec is the replica's flight recorder (nil = disabled): the ingress
	// stamps request arrival/verify marks and records drop events.
	rec *trace.Recorder
}

func newIngress(id uint32, n int, kp *crypto.KeyPair, replicaKeys []crypto.SessionKey, replicaPubs []crypto.PublicKey, workers int) *ingress {
	if workers < 1 {
		workers = 1
	}
	return &ingress{
		id:          id,
		n:           n,
		kp:          kp,
		replicaKeys: replicaKeys,
		replicaPubs: replicaPubs,
		clients:     newClientAuthTable(),
		workers:     workers,
	}
}

// start launches the pipeline goroutines over the transport's inbound
// channel. The pipeline winds down when recv closes; stop unblocks it if
// the consumer of out is gone. A single-worker pool (the resolved default
// on one core) needs no reorder buffer: one goroutine verifies inline in
// arrival order, skipping the per-packet completion bookkeeping.
func (in *ingress) start(recv <-chan transport.Packet) {
	in.out = make(chan *inMsg, ingressDepth)
	in.pause = make(chan struct{})
	in.quit = make(chan struct{})
	if in.workers == 1 {
		in.wg.Add(1)
		go in.runSerial(recv)
		return
	}
	in.work = make(chan *inMsg, in.workers*2)
	in.seq = make(chan *inMsg, ingressDepth)
	in.wg.Add(1)
	go in.dispatch(recv)
	for i := 0; i < in.workers; i++ {
		in.wg.Add(1)
		go in.worker()
	}
	in.wg.Add(1)
	go in.forward()
}

// runSerial is the single-worker fast path: verify and deliver inline.
func (in *ingress) runSerial(recv <-chan transport.Packet) {
	defer in.wg.Done()
	defer close(in.out)
	for {
		var pkt transport.Packet
		var ok bool
		select {
		case pkt, ok = <-recv:
			if !ok {
				return
			}
		case <-in.pause:
			return
		}
		m := getInMsg(pkt)
		if in.rec != nil {
			m.arriveNs = in.rec.Now()
		}
		in.process(m)
		switch m.verdict {
		case vDeliver:
			select {
			case in.out <- m:
			case <-in.quit:
				return
			}
		default:
			in.drop(m)
		}
	}
}

// drop counts a non-delivery verdict, records the matching flight-
// recorder event (adversarial storms show up as drop-event slopes in a
// /debug/flight dump) and releases the message.
func (in *ingress) drop(m *inMsg) {
	var kind trace.EventKind
	switch m.verdict { // every verdict but vDeliver, which never reaches drop
	case vDropBadAuth:
		in.droppedBadAuth.Add(1)
		kind = trace.EvDropBadAuth
	case vDropMalformed:
		in.droppedMalformed.Add(1)
		kind = trace.EvDropMalformed
	case vIgnore:
		in.droppedIgnored.Add(1)
		kind = trace.EvDropIgnored
	}
	if in.rec != nil {
		in.rec.RecordEvent(trace.Event{Kind: kind, Replica: in.id})
	}
	in.release(m)
}

// beginSettle stops the intake (as if the transport had closed) without
// touching the packets already admitted: workers finish verifying them,
// the forwarder delivers them, and out is closed behind the last one.
// The caller must keep consuming out until it closes — the pipeline may
// be blocked mid-delivery on a full channel. Graceful shutdown uses this
// to turn "whatever is inside the pipeline" into a finite, fully
// delivered backlog. Safe to call once, before stop.
func (in *ingress) beginSettle() {
	close(in.pause)
}

// stop terminates the pipeline and waits for its goroutines. Safe to call
// only once, after start.
func (in *ingress) stop() {
	close(in.quit)
	in.wg.Wait()
}

// backlog estimates how many packets are inside the pipeline: verified
// and awaiting the protocol loop, or (with a worker pool) dispatched and
// awaiting verification. It is a monitoring gauge — channel occupancy is
// inherently racy — and is cheap enough for the protocol loop to read on
// every Info snapshot.
func (in *ingress) backlog() int {
	n := len(in.out)
	if in.seq != nil {
		n += len(in.seq)
	}
	return n
}

// dispatch assigns every received packet a slot in the reorder queue and
// fans the verification work out to the pool. A packet enters work before
// seq so the forwarder never waits on a message no worker will process.
func (in *ingress) dispatch(recv <-chan transport.Packet) {
	defer in.wg.Done()
	defer close(in.seq)
	defer close(in.work)
	for {
		var pkt transport.Packet
		var ok bool
		select {
		case pkt, ok = <-recv:
			if !ok {
				return
			}
		case <-in.pause:
			return
		}
		m := getInMsg(pkt)
		if in.rec != nil {
			m.arriveNs = in.rec.Now()
		}
		if m.done == nil {
			// Buffered so the worker's completion send never blocks; the
			// channel survives recycling (drained by the forwarder each
			// trip), so only a slot's first pool-path use allocates it.
			m.done = make(chan struct{}, 1)
		}
		select {
		case in.work <- m:
		case <-in.quit:
			return
		}
		select {
		case in.seq <- m:
		case <-in.quit:
			return
		}
	}
}

// worker verifies and decodes packets until the work channel closes. It
// drains the channel unconditionally (no quit select): the forwarder
// relies on every dispatched message eventually completing.
func (in *ingress) worker() {
	defer in.wg.Done()
	for m := range in.work {
		in.process(m)
		m.done <- struct{}{}
	}
}

// forward delivers completed messages to the protocol loop in arrival
// order, counting authentication drops on the way.
func (in *ingress) forward() {
	defer in.wg.Done()
	defer close(in.out)
	for m := range in.seq {
		<-m.done
		switch m.verdict {
		case vDeliver:
			select {
			case in.out <- m:
			case <-in.quit:
				// Consumer gone: keep draining seq so worker results
				// are consumed, but deliver nothing further.
			}
		default:
			in.drop(m)
		}
	}
}

// process runs the full stateless path for one packet: envelope decode,
// authentication, typed payload decode, digest warm-up.
func (in *ingress) process(m *inMsg) {
	if err := wire.UnmarshalEnvelopeInto(&m.env, m.raw); err != nil {
		m.verdict = vDropMalformed
		return
	}
	env := &m.env
	switch env.Type {
	case wire.MTRequest:
		in.processRequest(m, env)
	case wire.MTPrePrepare:
		if !in.verifyFromReplica(env) {
			m.verdict = vDropBadAuth
			return
		}
		pp, err := wire.UnmarshalPrePrepare(env.Payload)
		if err != nil {
			m.verdict = vIgnore
			return
		}
		pp.BatchDigest() // warm the memo off the protocol loop
		m.pp = pp
	case wire.MTPrepare:
		if !in.verifyFromReplica(env) {
			m.verdict = vDropBadAuth
			return
		}
		if err := wire.UnmarshalPrepareInto(&m.prepStore, env.Payload); err != nil || m.prepStore.Replica != env.Sender {
			m.verdict = vIgnore
			return
		}
		m.prep = &m.prepStore
	case wire.MTCommit:
		if !in.verifyFromReplica(env) {
			m.verdict = vDropBadAuth
			return
		}
		if err := wire.UnmarshalCommitInto(&m.cmtStore, env.Payload); err != nil || m.cmtStore.Replica != env.Sender {
			m.verdict = vIgnore
			return
		}
		m.cmt = &m.cmtStore
	case wire.MTCheckpoint:
		if !in.verifySignedReplica(env) {
			m.verdict = vDropBadAuth
			return
		}
		if err := wire.UnmarshalCheckpointInto(&m.ckptStore, env.Payload); err != nil || m.ckptStore.Replica != env.Sender || !m.ckptStore.Consistent() {
			m.verdict = vIgnore
			return
		}
		m.ckpt = &m.ckptStore
	case wire.MTViewChange, wire.MTNewView:
		// Signature checked here; payloads are decoded by the protocol
		// loop (cold path — it retains and re-verifies raw vote
		// envelopes as proofs anyway).
		if !in.verifySignedReplica(env) {
			m.verdict = vDropBadAuth
			return
		}
	case wire.MTSessionHello:
		in.processHello(m, env)
	case wire.MTStatus:
		if !in.verifyFromReplica(env) {
			m.verdict = vIgnore
			return
		}
		if err := wire.UnmarshalStatusInto(&m.statusStore, env.Payload); err != nil || m.statusStore.Replica != env.Sender {
			m.verdict = vIgnore
			return
		}
		m.status = &m.statusStore
	case wire.MTFetch, wire.MTStateNode, wire.MTStatePage:
		// Unauthenticated recovery traffic, verified against agreed
		// digests inside the protocol loop.
	default:
		// Replies and join challenges are client-bound; a replica
		// ignores them.
		m.verdict = vIgnore
	}
}

// processRequest authenticates a client request. Join requests pass
// through undecided: their signature is checked against the key embedded
// in the body by the protocol loop, which consults pending-join state.
func (in *ingress) processRequest(m *inMsg, env *wire.Envelope) {
	req, err := wire.UnmarshalRequest(env.Payload)
	if err != nil {
		m.verdict = vDropMalformed
		return
	}
	m.req = req
	if req.System() && env.Sender == JoinSender {
		return
	}
	if int(env.Sender) < in.n || req.ClientID != env.Sender {
		m.verdict = vDropBadAuth
		return
	}
	ca, ok, gen := in.clients.lookup(env.Sender)
	if !ok || !verifyClientEnvelope(env, in.id, ca) {
		// Unknown client (a join not yet republished — or never
		// admitted) or failed MAC/signature (a racing session install
		// — or a forgery). Record the view generation and let the loop
		// decide: re-verify if the view moved, stand by the failure
		// otherwise.
		m.authPending = true
		m.authGen = gen
		return
	}
	m.verifiedPub = ca.pub
	if req.Big() {
		req.Digest() // warm the memo off the protocol loop
	}
	if in.rec != nil {
		// The request's identity is now verified: backfill the arrival
		// mark captured at the transport and stamp verification done.
		in.rec.StampAt(req.ClientID, req.Timestamp, trace.IngressArrive, m.arriveNs)
		in.rec.Stamp(req.ClientID, req.Timestamp, trace.VerifyDone)
	}
}

// verifyClientEnvelope is the single implementation of client envelope
// authentication: an authenticator entry under the session key, or a
// signature under the long-term key. Ingress workers and the protocol
// loop's re-verification both call it, with their respective views of
// the key material.
func verifyClientEnvelope(env *wire.Envelope, replicaID uint32, ca clientAuth) bool {
	switch env.Kind {
	case wire.AuthMAC:
		// No session key material (e.g. this replica restarted and the
		// client's hello has not been retransmitted yet — the §2.3
		// stall): the envelope cannot be authenticated.
		return ca.hasSession && env.VerifyMACEntry(int(replicaID), ca.session)
	case wire.AuthSig:
		return env.VerifySig(ca.pub)
	default:
		return false
	}
}

// processHello verifies a session hello and derives the shared key, so
// the protocol loop only installs the result.
func (in *ingress) processHello(m *inMsg, env *wire.Envelope) {
	if err := wire.UnmarshalSessionHelloInto(&m.helloStore, env.Payload); err != nil {
		m.verdict = vIgnore
		return
	}
	h := &m.helloStore
	if h.ClientID != env.Sender || int(h.ClientID) < in.n {
		m.verdict = vIgnore
		return
	}
	m.hello = h
	ca, ok, gen := in.clients.lookup(h.ClientID)
	if !ok {
		// The client may have been admitted by a join the loop has not
		// republished yet; let the loop verify and derive.
		m.authPending = true
		m.authGen = gen
		return
	}
	if env.Kind != wire.AuthSig || !env.VerifySig(ca.pub) {
		// Same stale-view possibility as requests (the id may have been
		// reassigned by ops the loop has not applied): gen-guarded
		// deferral, not a final drop.
		m.authPending = true
		m.authGen = gen
		return
	}
	ephemeral, err := crypto.UnmarshalPublicKey(h.PubKey)
	if err != nil {
		m.verdict = vIgnore
		return
	}
	sk, err := in.kp.SharedKey(ephemeral)
	if err != nil {
		m.verdict = vIgnore
		return
	}
	m.verifiedPub = ca.pub
	m.sessionKey = sk
}

// verifyFromReplica authenticates an envelope claimed to come from a
// fellow replica (MAC authenticator entry or signature).
func (in *ingress) verifyFromReplica(env *wire.Envelope) bool {
	if int(env.Sender) >= in.n || env.Sender == in.id {
		return false
	}
	switch env.Kind {
	case wire.AuthMAC:
		return env.VerifyMACEntry(int(in.id), in.replicaKeys[env.Sender])
	case wire.AuthSig:
		return env.VerifySig(in.replicaPubs[env.Sender])
	default:
		return false
	}
}

// verifySignedReplica authenticates an always-signed replica envelope
// (view change, new view, checkpoint). It is usable on stored raw
// envelopes.
func (in *ingress) verifySignedReplica(env *wire.Envelope) bool {
	if int(env.Sender) >= in.n {
		return false
	}
	if env.Kind != wire.AuthSig {
		return false
	}
	return env.VerifySig(in.replicaPubs[env.Sender])
}
