package harness

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/state"
	"repro/sqlstate"
)

// EchoApp is the null-operation service used by the paper's §4.1
// throughput experiments: it returns a fixed-size response without
// touching state. The replica spends its time purely in the protocol.
type EchoApp struct {
	// RespSize is the reply body size in bytes.
	RespSize int
	// Executed counts operations (read with atomic).
	Executed atomic.Uint64
}

var _ core.Application = (*EchoApp)(nil)

// Execute implements core.Application.
func (a *EchoApp) Execute(op []byte, nd core.NonDetValues, readOnly bool) []byte {
	a.Executed.Add(1)
	return make([]byte, a.RespSize)
}

// NewEchoFactory builds an EchoApp per replica.
func NewEchoFactory(respSize int) AppFactory {
	return func(uint32) core.Application {
		return &EchoApp{RespSize: respSize}
	}
}

// counterSlots is the number of 8-byte counter cells a CounterApp hosts.
// Slot 0 serves the legacy unkeyed "inc"/"get" operations; named counters
// hash onto slots 1..counterSlots-1.
const counterSlots = 1024

// CounterApp is a minimal stateful service used by the integration tests:
// an array of uint64 counters persisted in the replicated state region.
//
// Operations: "inc" / "get" address the legacy counter in slot 0 and are
// unkeyed (execution barriers under the sharded engine); "inc <name>",
// "get <name>" and "bump <name>" address the named counter's slot and
// carry that slot as their conflict key, so operations on different slots
// apply concurrently. "bump" increments like "inc" but answers a fixed
// "OK": its reply is independent of the interleaving with other clients'
// bumps of the same counter, which is what the determinism suite needs to
// compare reply streams across shard counts under contention.
//
// Each operation touches only its slot's 8 bytes, so disjoint-keyset
// operations commute byte-wise — the Sharder contract. Distinct names
// that collide onto one slot share a conflict key and therefore
// serialize; the key IS the storage cell, never the name.
type CounterApp struct {
	region *state.Region
}

var (
	_ core.Application = (*CounterApp)(nil)
	_ core.StateUser   = (*CounterApp)(nil)
	_ core.Sharder     = (*CounterApp)(nil)
)

// AttachState implements core.StateUser.
func (a *CounterApp) AttachState(region *state.Region) { a.region = region }

// counterSlot maps an operation to its slot: 0 for the legacy unkeyed
// ops, a name-hashed slot in [1, counterSlots) otherwise.
func counterSlot(name []byte) uint64 {
	if len(name) == 0 {
		return 0
	}
	return 1 + exec.Hash64(name)%(counterSlots-1)
}

// splitCounterOp parses "verb" or "verb name" without copying (Keys runs
// per committed operation on the protocol loop — keep it allocation-free).
func splitCounterOp(op []byte) (verb, name []byte) {
	for i := 0; i < len(op); i++ {
		if op[i] == ' ' {
			return op[:i], op[i+1:]
		}
	}
	return op, nil
}

// Keys implements core.Sharder: the conflict key of a named operation is
// its storage slot; legacy unkeyed operations are barriers.
func (a *CounterApp) Keys(op []byte) [][]byte { return CounterKeys(op) }

// CounterKeys is CounterApp's conflict keyset as a standalone function,
// for callers that have no application instance in hand (the benchmark
// uses it to name the storage cell a counter lands in).
func CounterKeys(op []byte) [][]byte {
	verb, name := splitCounterOp(op)
	if len(name) == 0 {
		return nil
	}
	switch string(verb) { // compiler-recognized, no allocation
	case "inc", "get", "bump":
		key := make([]byte, 8)
		binary.BigEndian.PutUint64(key, counterSlot(name))
		return [][]byte{key}
	}
	return nil
}

// Execute implements core.Application.
func (a *CounterApp) Execute(op []byte, nd core.NonDetValues, readOnly bool) []byte {
	verb, name := splitCounterOp(op)
	off := int64(counterSlot(name) * 8)
	var buf [8]byte
	if _, err := a.region.ReadAt(buf[:], off); err != nil {
		return nil
	}
	v := binary.BigEndian.Uint64(buf[:])
	switch string(verb) {
	case "inc", "bump":
		if readOnly {
			return nil // refuse mutation on the read-only path
		}
		v++
		binary.BigEndian.PutUint64(buf[:], v)
		if _, err := a.region.WriteAt(buf[:], off); err != nil {
			return nil
		}
	case "get":
	default:
		return []byte("unknown op")
	}
	if string(verb) == "bump" {
		return []byte("OK")
	}
	out := make([]byte, 8)
	binary.BigEndian.PutUint64(out, v)
	return out
}

// NewCounterFactory builds a CounterApp per replica.
func NewCounterFactory() AppFactory {
	return func(uint32) core.Application { return &CounterApp{} }
}

// AuthCounterApp wraps CounterApp with an application-level authorizer
// for dynamic membership tests: the identification buffer is
// "user:password"; any non-empty user with password "sesame" is accepted,
// and the user name is the principal.
type AuthCounterApp struct {
	CounterApp
}

var _ core.Authorizer = (*AuthCounterApp)(nil)

// Authorize implements core.Authorizer.
func (a *AuthCounterApp) Authorize(appAuth []byte) (string, bool) {
	s := string(appAuth)
	for i := 0; i < len(s); i++ {
		if s[i] == ':' {
			user, pass := s[:i], s[i+1:]
			return user, user != "" && pass == "sesame"
		}
	}
	return "", false
}

// NewAuthCounterFactory builds an AuthCounterApp per replica.
func NewAuthCounterFactory() AppFactory {
	return func(uint32) core.Application { return &AuthCounterApp{} }
}

// VotesSchema is the §4.2 e-voting table the SQL application initializes.
var VotesSchema = []string{
	"CREATE TABLE IF NOT EXISTS votes (voter TEXT, vote TEXT, ts INTEGER, rnd INTEGER)",
}

// NewSQLFactory builds the replicated SQL application per replica
// (§3.2): durable selects ACID mode; diskRoot hosts journals and disk
// images (one subdirectory per replica).
func NewSQLFactory(durable bool, diskRoot string) AppFactory {
	return func(id uint32) core.Application {
		diskDir := ""
		if diskRoot != "" {
			diskDir = fmt.Sprintf("%s/replica-%d", diskRoot, id)
		}
		return sqlstate.NewApp(sqlstate.Options{
			DiskDir: diskDir,
			Durable: durable,
			InitSQL: VotesSchema,
		})
	}
}
