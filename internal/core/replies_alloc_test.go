//go:build !race

// Allocation counts are not reproducible under the race detector, which
// makes sync.Pool drop a random share of Puts.

package core

import (
	"testing"

	"repro/internal/wire"
)

// TestSendSpanRepliesAllocsFlat: six replies in one group cost no more
// allocations than one reply — nothing is built per reply or per span
// beyond the envelope itself.
func TestSendSpanRepliesAllocsFlat(t *testing.T) {
	g := newReplyRig(t, nil)
	done := g.r.exec.Submit(nil, func() {}) // the serial engine's finished task
	group := func(n int) []*pendingApply {
		applies := make([]*pendingApply, n)
		for i := range applies {
			pa := &pendingApply{task: done, result: []byte("result"), addr: "nowhere"}
			pa.rep = wire.Reply{ClientID: 4, Timestamp: uint64(i + 1)}
			pa.head = pa
			if i > 0 {
				applies[i-1].next = pa
				pa.head = applies[0]
			}
			applies[i] = pa
		}
		return applies
	}
	one, six := group(1), group(6)
	allocsOne := testing.AllocsPerRun(50, func() { g.r.sendSpanReplies(one) })
	allocsSix := testing.AllocsPerRun(50, func() { g.r.sendSpanReplies(six) })
	if allocsSix > allocsOne {
		t.Fatalf("six grouped replies: %.0f allocs, one reply: %.0f", allocsSix, allocsOne)
	}
}
