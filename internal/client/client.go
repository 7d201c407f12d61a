// Package client implements the PBFT client protocol: asynchronous,
// pipelined request submission with adaptive per-call retransmission
// (exponential backoff with jitter, capped — see WithBackoffCap), reply
// quorum collection (f+1 stable or 2f+1 with tentative replies), the read-only
// and big-request paths, MAC session establishment with blind periodic
// retransmission (§2.3 of the paper), and the dynamic Join/Leave flow of
// §3.1.
//
// A Client is safe for concurrent use: Submit returns a *Call future and
// many goroutines may submit and await calls on one client at once, up to
// the pipeline window. A single demultiplexing goroutine owns the
// connection's receive side and routes authenticated replies to the
// per-call quorum trackers by timestamp; Invoke and InvokeReadOnly are
// thin synchronous wrappers over Submit.
package client

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// ErrClosed is returned by operations on a closed client.
var ErrClosed = errors.New("client: closed")

// ErrTimeout is returned when no reply quorum assembled within the
// configured number of retransmission rounds.
var ErrTimeout = errors.New("client: request timed out")

// ErrNotJoined is returned when a dynamic client invokes before Join.
var ErrNotJoined = errors.New("client: not joined")

// ErrJoinDenied is returned when the replicated service refuses a Join.
type ErrJoinDenied struct{ Reason string }

func (e *ErrJoinDenied) Error() string { return "client: join denied: " + e.Reason }

// Client is a PBFT service client. It is safe for concurrent use: any
// number of goroutines may Submit/Invoke on one client, with at most the
// pipeline window in flight at once.
type Client struct {
	cfg  *core.Config
	kp   *crypto.KeyPair
	eph  *crypto.KeyPair // ephemeral session keys (transient by design)
	conn transport.Conn

	n, f, quorum int
	sessionKeys  []crypto.SessionKey
	replicaAddrs []string

	// rec is the optional client-side flight recorder (WithRecorder);
	// nil costs one nil check per stamp point.
	rec *trace.Recorder

	pipelineDepth int
	maxRetries    int
	backoffCap    time.Duration // retransmission backoff ceiling
	window        uint64        // replica-side dedup window W (timestamp span cap)
	slots         chan struct{} // pipeline window semaphore

	mu sync.Mutex
	id uint32
	// view is the client's view estimate: the highest view that f+1
	// distinct replicas have reported in authenticated replies. A single
	// (possibly Byzantine) replica can therefore never steer the client
	// toward a bogus primary; viewVotes holds the per-replica reports.
	view      uint64
	viewVotes []uint64
	timestamp uint64
	lastHello time.Time
	joined    bool
	closed    bool
	calls     map[uint64]*Call         // in-flight, keyed by request timestamp
	challSink chan *wire.JoinChallenge // non-nil while Join phase 1 runs

	demuxDone chan struct{} // closed when the demux goroutine exits

	// verifies counts the reply envelopes dispatch authenticated, passed
	// or not: tests read it to see which replies were dropped unverified.
	verifies atomic.Uint64
}

// New creates a client with a pre-provisioned identity (static
// membership). The connection is owned by the client afterwards.
func New(cfg *core.Config, id uint32, kp *crypto.KeyPair, conn transport.Conn, opts ...Option) (*Client, error) {
	c, err := newClient(cfg, kp, conn, opts)
	if err != nil {
		return nil, err
	}
	c.id = id
	c.joined = true
	c.start()
	return c, nil
}

// NewDynamic creates a client that must Join before invoking (§3.1).
func NewDynamic(cfg *core.Config, kp *crypto.KeyPair, conn transport.Conn, opts ...Option) (*Client, error) {
	c, err := newClient(cfg, kp, conn, opts)
	if err != nil {
		return nil, err
	}
	c.id = core.JoinSender
	c.start()
	return c, nil
}

func newClient(cfg *core.Config, kp *crypto.KeyPair, conn transport.Conn, opts []Option) (*Client, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	eph, err := crypto.GenerateKeyPair(nil)
	if err != nil {
		return nil, fmt.Errorf("session keys: %w", err)
	}
	c := &Client{
		cfg:        cfg,
		kp:         kp,
		eph:        eph,
		conn:       conn,
		n:          cfg.N(),
		f:          cfg.Opts.F,
		quorum:     cfg.Quorum(),
		maxRetries: defaultMaxRetries,
		window:     cfg.ClientWindow(),
		// Like the original implementation, request timestamps are
		// wall-clock based so they stay monotonic across client
		// restarts (replicas deduplicate on them).
		timestamp: uint64(time.Now().UnixNano()),
		calls:     make(map[uint64]*Call),
		demuxDone: make(chan struct{}),
	}
	for _, o := range opts {
		o(c)
	}
	if c.pipelineDepth <= 0 {
		// Match the replica-side dedup window: submitting deeper than W
		// would only get the excess dropped at the primary.
		c.pipelineDepth = int(cfg.ClientWindow())
	}
	if c.maxRetries <= 0 {
		c.maxRetries = defaultMaxRetries
	}
	if c.backoffCap <= 0 {
		c.backoffCap = 8 * cfg.Opts.RequestTimeout
	}
	c.slots = make(chan struct{}, c.pipelineDepth)
	for i := 0; i < c.pipelineDepth; i++ {
		c.slots <- struct{}{}
	}
	c.sessionKeys = make([]crypto.SessionKey, c.n)
	c.replicaAddrs = make([]string, c.n)
	c.viewVotes = make([]uint64, c.n)
	for i, ri := range cfg.Replicas {
		c.replicaAddrs[i] = ri.Addr
		// Pairwise key: client ephemeral x replica static.
		sk, err := eph.SharedKey(ri.PubKey)
		if err != nil {
			return nil, fmt.Errorf("derive session key %d: %w", i, err)
		}
		c.sessionKeys[i] = sk
	}
	return c, nil
}

// start launches the demux goroutine; called once from the constructors.
func (c *Client) start() { go c.demux() }

// ID returns the client identifier (meaningful after Join for dynamic
// clients).
func (c *Client) ID() uint32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.id
}

// PipelineDepth returns the client's in-flight request bound.
func (c *Client) PipelineDepth() int { return c.pipelineDepth }

// Close releases the client's connection. In-flight calls complete with
// ErrClosed; Close returns once the demux goroutine has exited, so no
// goroutines or timers owned by the client survive it.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		<-c.demuxDone
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	err := c.conn.Close()
	<-c.demuxDone // demux fails every in-flight call with ErrClosed
	return err
}

// demux is the single goroutine that owns conn.Recv(): it authenticates
// inbound packets and routes replies to their calls by timestamp. It
// exits when the connection closes, failing whatever is still in flight.
func (c *Client) demux() {
	defer close(c.demuxDone)
	for pkt := range c.conn.Recv() {
		c.dispatch(pkt.Data)
	}
	c.mu.Lock()
	c.closed = true
	pending := make([]*Call, 0, len(c.calls))
	for _, call := range c.calls {
		pending = append(pending, call)
	}
	c.mu.Unlock()
	for _, call := range pending {
		call.finish(nil, ErrClosed)
	}
}

// dispatch authenticates and routes one inbound packet.
func (c *Client) dispatch(data []byte) {
	env, err := wire.UnmarshalEnvelope(data)
	if err != nil || int(env.Sender) >= c.n {
		return
	}
	switch env.Type {
	case wire.MTReply:
		reps, err := wire.UnmarshalReplyList(env.Payload)
		if err != nil || !c.wantReplies(env.Sender, reps) {
			return
		}
		c.verifies.Add(1)
		if !c.verifyFromReplica(env) {
			return
		}
		c.deliverReplies(env.Sender, reps)
	case wire.MTJoinChall:
		// Join challenges are always signed (no session exists yet).
		if env.Kind != wire.AuthSig || !env.VerifySig(c.cfg.Replicas[env.Sender].PubKey) {
			return
		}
		ch, err := wire.UnmarshalJoinChallenge(env.Payload)
		if err != nil || ch.Replica != env.Sender {
			return
		}
		c.mu.Lock()
		sink := c.challSink
		c.mu.Unlock()
		if sink != nil {
			select {
			case sink <- ch:
			default: // collector is behind; drop like the network would
			}
		}
	}
}

// wantReplies decides, before any cryptography, whether a decoded reply list
// is worth authenticating. It must be one replica's replies to one client —
// every record names the envelope's sender and the same ClientID, or the
// whole list is dropped — and at least one reply must answer a call in
// flight or report a view above the sender's recorded vote. Everything
// else, above all the replies a finished quorum no longer needs, is dropped
// unverified: unauthenticated bytes only ever decide drop-or-verify, which
// a lossy network decides anyway.
func (c *Client) wantReplies(sender uint32, reps []wire.Reply) bool {
	if len(reps) == 0 {
		return false
	}
	for i := range reps {
		if reps[i].Replica != sender || reps[i].ClientID != reps[0].ClientID {
			return false
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range reps {
		if call := c.calls[reps[i].Timestamp]; call != nil && call.clientID == reps[i].ClientID {
			return true
		}
		if reps[i].View > c.viewVotes[sender] {
			return true
		}
	}
	return false
}

// deliverReplies routes an authenticated reply list: the highest view in it
// is the sender's view report, and every reply goes to its call.
func (c *Client) deliverReplies(sender uint32, reps []wire.Reply) {
	var reported uint64
	for i := range reps {
		reported = max(reported, reps[i].View)
	}
	c.mu.Lock()
	var behind []*Call
	if c.recordViewLocked(sender, reported) {
		// The group moved to a new primary: hand it every call the old
		// one was sent, now, not one backoff interval from now.
		for _, other := range c.calls {
			if !other.multicast {
				behind = append(behind, other)
			}
		}
	}
	view := c.view
	c.mu.Unlock()
	for _, other := range behind {
		other.retarget(view)
	}
	for i := range reps {
		rep := &reps[i]
		c.mu.Lock()
		call := c.calls[rep.Timestamp]
		c.mu.Unlock()
		if call != nil && call.clientID == rep.ClientID {
			call.deliver(rep)
		}
	}
}

// recordViewLocked folds one replica's reported view into the estimate:
// the estimate advances to v only when f+1 distinct replicas have
// reported v or higher (at least one of them is then correct) — and
// reports whether it did. Callers hold c.mu.
func (c *Client) recordViewLocked(replica uint32, view uint64) bool {
	if int(replica) >= len(c.viewVotes) || view <= c.viewVotes[replica] {
		return false
	}
	c.viewVotes[replica] = view
	if view <= c.view {
		return false
	}
	// The (f+1)-th highest vote is the highest view with f+1 supporters.
	votes := append([]uint64(nil), c.viewVotes...)
	sort.Slice(votes, func(i, j int) bool { return votes[i] > votes[j] })
	if supported := votes[c.f]; supported > c.view {
		c.view = supported
		return true
	}
	return false
}

// viewEstimate returns the f+1-supported view estimate.
func (c *Client) viewEstimate() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.view
}

// primaryAddr returns the address of the primary of a view.
func (c *Client) primaryAddr(view uint64) string {
	return c.replicaAddrs[c.cfg.Primary(view)]
}

// verifyFromReplica authenticates a reply envelope from its sender.
func (c *Client) verifyFromReplica(env *wire.Envelope) bool {
	switch env.Kind {
	case wire.AuthMAC:
		return env.VerifyMACEntry(0, c.sessionKeys[env.Sender])
	case wire.AuthSig:
		return env.VerifySig(c.cfg.Replicas[env.Sender].PubKey)
	default:
		return false
	}
}

// seal authenticates an envelope to the replica group using the given
// sender identity: an authenticator in MAC mode, a signature otherwise.
// Join requests and session hellos are always signed.
func (c *Client) seal(sender uint32, t wire.MsgType, payload []byte, forceSig bool) *wire.Envelope {
	env := &wire.Envelope{Type: t, Sender: sender, Payload: payload}
	if c.cfg.Opts.UseMACs && !forceSig {
		env.SealMAC(c.sessionKeys)
	} else {
		env.SealSig(c.kp)
	}
	return env
}

// helloEnvelope builds the session-establishment envelope for the current
// identity. Callers broadcast it outside the client lock.
func (c *Client) helloEnvelope(id uint32) *wire.Envelope {
	h := wire.SessionHello{
		ClientID: id,
		Addr:     c.conn.Addr(),
		PubKey:   crypto.MarshalPublicKey(crypto.PublicKey{Sign: c.kp.Public().Sign, DH: c.eph.Public().DH}),
	}
	return c.seal(id, wire.MTSessionHello, h.Marshal(), true)
}

// maybeHello retransmits the session hello when its timer expired. Hellos
// are retransmitted blindly on HelloInterval; this is the authenticator
// retransmission mechanism whose recovery implications §2.3 analyzes.
func (c *Client) maybeHello() {
	c.mu.Lock()
	due := c.helloDueLocked()
	id := c.id
	c.mu.Unlock()
	if due {
		c.broadcast(c.helloEnvelope(id))
	}
}

// helloDueLocked checks and stamps the hello timer. Callers hold c.mu and
// build + transmit the (signed) hello envelope after unlocking: sealing is
// too expensive for the critical section.
func (c *Client) helloDueLocked() bool {
	if !c.cfg.Opts.UseMACs || c.id == core.JoinSender {
		return false
	}
	if time.Since(c.lastHello) < c.cfg.Opts.HelloInterval {
		return false
	}
	c.lastHello = time.Now()
	return true
}

// broadcast seals and marshals once, then fans the same byte slice out to
// every replica through the transport's native broadcast path. Request
// retransmissions reuse the memoized wire form across rounds.
func (c *Client) broadcast(env *wire.Envelope) error {
	return transport.Broadcast(c.conn, c.replicaAddrs, env.Raw())
}

// Submit hands an operation to the replicated service and returns a Call
// future that completes when a reply quorum assembles, the context ends,
// the retransmission budget runs out, or the client closes. Submit blocks
// only while the pipeline window is full (backpressure); the returned
// Call is never nil.
func (c *Client) Submit(ctx context.Context, op []byte, opts ...CallOption) *Call {
	var co callOpts
	for _, o := range opts {
		o(&co)
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return failedCall(ErrClosed)
	}
	if !c.joined {
		c.mu.Unlock()
		return failedCall(ErrNotJoined)
	}
	c.mu.Unlock()

	// Bounded pipeline, part 1: wait for a window slot (released on
	// completion), capping in-flight count.
	select {
	case <-c.slots:
	case <-ctx.Done():
		return failedCall(ctx.Err())
	case <-c.demuxDone:
		return failedCall(ErrClosed)
	}

	// Bounded pipeline, part 2: cap the in-flight timestamp *span* at
	// the replica-side window W. Replicas treat any timestamp at or
	// below maxExecuted-W as a stale duplicate, so if faster siblings
	// kept completing and resubmitting while one call stalled, a new
	// timestamp more than W ahead of the stalled one could let the
	// replica floor overtake it — the request would then never execute.
	// Like a TCP window, the oldest outstanding call gates sliding.
	c.mu.Lock()
	for {
		if c.closed {
			c.mu.Unlock()
			c.slots <- struct{}{}
			return failedCall(ErrClosed)
		}
		oldest := c.oldestWindowedLocked()
		if oldest == nil || c.timestamp+1-oldest.timestamp < c.window {
			break
		}
		oldestDone := oldest.done
		c.mu.Unlock()
		select {
		case <-oldestDone:
		case <-ctx.Done():
			c.slots <- struct{}{}
			return failedCall(ctx.Err())
		case <-c.demuxDone:
			c.slots <- struct{}{}
			return failedCall(ErrClosed)
		}
		c.mu.Lock()
	}
	c.timestamp++
	ts := c.timestamp
	id := c.id
	helloDue := c.helloDueLocked()
	c.mu.Unlock()
	if c.rec != nil {
		c.rec.Stamp(id, ts, trace.ClientSubmit)
	}

	// Crypto (MAC authenticator or signature) runs outside the client
	// lock so concurrent submitters seal in parallel.
	var helloEnv *wire.Envelope
	if helloDue {
		helloEnv = c.helloEnvelope(id)
	}
	req := &wire.Request{
		ClientID:  id,
		Timestamp: ts,
		Op:        op,
	}
	if co.readOnly {
		req.Flags |= wire.FlagReadOnly
	}
	big := c.cfg.IsBig(len(op)) && !co.readOnly
	if big {
		req.Flags |= wire.FlagBig
	}
	env := c.seal(id, wire.MTRequest, req.Marshal(), false)
	if c.rec != nil {
		c.rec.Stamp(id, ts, trace.ClientSealed)
	}

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.slots <- struct{}{}
		return failedCall(ErrClosed)
	}
	// Big and read-only requests are multicast by the client, relieving
	// the primary (§2.1); others go to the primary alone.
	call := c.register(ctx, id, ts, env, big || co.readOnly, true)
	call.windowed = true
	// Read here, where the call becomes visible to dispatch: a view the
	// estimate reaches from now on retargets this call too.
	view := c.view
	call.sentView = view
	c.mu.Unlock()

	if helloEnv != nil {
		c.broadcast(helloEnv)
	}
	c.launch(call, c.primaryAddr(view))
	if c.rec != nil {
		c.rec.Stamp(id, ts, trace.ClientFirstSend)
	}
	return call
}

// oldestWindowedLocked returns the in-flight call with the lowest
// sequential timestamp (nil when none). Join calls use nonce-derived
// timestamps outside the sequence and are excluded. Callers hold c.mu;
// the scan is bounded by the pipeline depth.
func (c *Client) oldestWindowedLocked() *Call {
	var oldest *Call
	for _, call := range c.calls {
		if !call.windowed {
			continue
		}
		if oldest == nil || call.timestamp < oldest.timestamp {
			oldest = call
		}
	}
	return oldest
}

// register creates a call and enters it into the routing table. Callers
// hold c.mu.
func (c *Client) register(ctx context.Context, clientID uint32, ts uint64, env *wire.Envelope, multicast, holdsSlot bool) *Call {
	call := &Call{
		c:         c,
		ctx:       ctx,
		clientID:  clientID,
		timestamp: ts,
		env:       env,
		multicast: multicast,
		holdsSlot: holdsSlot,
		byDigest:  make(map[crypto.Digest]*replyQuorum),
		done:      make(chan struct{}),
	}
	// Materialize the memoized wire form now, while the call is owned by
	// one goroutine: retransmission timers reuse the same bytes.
	env.Raw()
	call.registered = true
	c.calls[ts] = call
	return call
}

// launch arms a registered call's cancellation hook and retransmission
// timer, then performs the first transmission. A deterministic transport
// refusal (the datagram exceeds the size limit) fails the call
// immediately instead of spinning through retransmission rounds to
// ErrTimeout.
func (c *Client) launch(call *Call, primaryAddr string) {
	call.armCtx()
	call.armTimer(c.cfg.Opts.RequestTimeout)
	var err error
	if call.multicast || primaryAddr == "" {
		err = c.broadcast(call.env)
	} else {
		err = c.conn.Send(primaryAddr, call.env.Raw())
	}
	if errors.Is(err, transport.ErrTooLarge) {
		call.finish(nil, err)
	}
}

// Invoke submits an operation for totally ordered execution and waits for
// a reply quorum. It is a synchronous wrapper over Submit.
func (c *Client) Invoke(ctx context.Context, op []byte) ([]byte, error) {
	return c.Submit(ctx, op).Result()
}

// InvokeReadOnly submits a read-only operation (executed immediately by
// each replica, no agreement; needs a 2f+1 matching quorum).
func (c *Client) InvokeReadOnly(ctx context.Context, op []byte) ([]byte, error) {
	return c.Submit(ctx, op, ReadOnly()).Result()
}

// replyQuorum tracks matching replies for one request.
type replyQuorum struct {
	result    []byte
	stable    map[uint32]bool
	tentative map[uint32]bool
}

// recordReply folds one reply into the quorum state: f+1 matching stable
// replies accept, or 2f+1 matching replies when some are tentative.
func recordReply(byDigest map[crypto.Digest]*replyQuorum, rep *wire.Reply, f, quorum int) ([]byte, bool) {
	d := crypto.DigestOf(rep.Result)
	q, ok := byDigest[d]
	if !ok {
		q = &replyQuorum{
			result:    rep.Result,
			stable:    make(map[uint32]bool),
			tentative: make(map[uint32]bool),
		}
		byDigest[d] = q
	}
	if rep.Tentative() {
		q.tentative[rep.Replica] = true
	} else {
		q.stable[rep.Replica] = true
		delete(q.tentative, rep.Replica)
	}
	if len(q.stable) >= f+1 {
		return q.result, true
	}
	if len(q.stable)+len(q.tentative) >= quorum {
		return q.result, true
	}
	return nil, false
}
