package core

import (
	"time"

	"repro/internal/crypto"
	"repro/internal/wire"
)

// entry is the message-log record for one sequence number: the
// pre-prepare, the prepare and commit certificates, and the execution
// status.
type entry struct {
	seq    uint64
	view   uint64 // view of the accepted pre-prepare
	pp     *wire.PrePrepare
	ppRaw  []byte // the pre-prepare's original envelope (retransmission, P sets)
	digest crypto.Digest
	// ppAt is the tick the pre-prepare was logged at; status gossip
	// retransmits an entry that sat unexecuted past one StatusInterval.
	ppAt time.Time

	// prepares maps backup id -> agreed digest (primary's pre-prepare
	// stands in for its prepare, so it is excluded).
	prepares map[uint32]crypto.Digest
	// commits maps replica id -> agreed digest.
	commits map[uint32]crypto.Digest

	prepared    bool
	committed   bool
	executed    bool // tentatively or stably
	sentPrepare bool
	sentCommit  bool
	// missingBody marks a big-request wedge (§2.4): the entry is agreed
	// but a request body never arrived, so execution cannot proceed.
	missingBody bool
	// proposedAt stamps when this replica (as primary, with the adaptive
	// batching controller running) proposed the batch; the commit
	// certificate closes the controller's latency sample. Zero otherwise.
	proposedAt time.Time
	// replies are the replies produced at execution; shared with the
	// reply cache so a later commit can clear their tentative flag.
	replies []*wire.Reply
}

func newEntry(seq uint64) *entry {
	return &entry{
		seq:      seq,
		prepares: make(map[uint32]crypto.Digest),
		commits:  make(map[uint32]crypto.Digest),
	}
}

// countPrepares returns the number of backups that prepared the entry's
// digest.
func (e *entry) countPrepares() int {
	n := 0
	for _, d := range e.prepares {
		if d == e.digest {
			n++
		}
	}
	return n
}

// countCommits returns the number of replicas that committed the entry's
// digest.
func (e *entry) countCommits() int {
	n := 0
	for _, d := range e.commits {
		if d == e.digest {
			n++
		}
	}
	return n
}

// resetForView clears the agreement state when a new view re-proposes the
// sequence number (certificates are per-view).
func (e *entry) resetForView(view uint64, pp *wire.PrePrepare, ppRaw []byte, digest crypto.Digest) {
	e.view = view
	e.pp = pp
	e.ppRaw = ppRaw
	e.digest = digest
	e.prepares = make(map[uint32]crypto.Digest)
	e.commits = make(map[uint32]crypto.Digest)
	e.prepared = false
	e.committed = false
	e.sentPrepare = false
	e.sentCommit = false
	e.missingBody = false
}

// reqKey identifies one client request.
type reqKey struct {
	client uint32
	ts     uint64
}

// pendingReq is one request a backup waits on the primary to order: since
// arms the request timer (checkLiveness), req is the authenticated request
// itself, kept so that this replica can order it at once should it become
// the primary (nil for joins, which their client multicasts on every round).
type pendingReq struct {
	since time.Time
	req   *wire.Request
}

// heldKey identifies one parked agreement message: its type, sequence
// number and sender.
type heldKey struct {
	kind    wire.MsgType
	seq     uint64
	replica uint32
}

// heldMsg is a parked pre-prepare (with its envelope's wire form), prepare
// or commit, by heldKey.kind.
type heldMsg struct {
	pp   *wire.PrePrepare
	raw  []byte
	prep wire.Prepare
	cmt  wire.Commit
}

// bigBody is a request body received directly from a client (big-request
// optimization), waiting to be referenced by a digest-only batch entry.
type bigBody struct {
	req *wire.Request
	// executedSeq is the sequence number the request executed at
	// (0 = not yet executed); bodies are garbage collected once their
	// sequence number falls below the stable checkpoint.
	executedSeq uint64
}
