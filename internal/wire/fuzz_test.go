package wire

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzUnmarshalEnvelope feeds arbitrary bytes to the envelope decoder and
// reads every decoded payload as a reply list, the MTReply format. Neither
// decoder may panic, and whatever decodes must encode back into bytes that
// decode to the same values. The seed corpus (testdata/fuzz) holds signed
// reply envelopes carrying a list of one, a list of 16 and a truncated list.
func FuzzUnmarshalEnvelope(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		env, err := UnmarshalEnvelope(b)
		if err != nil {
			return
		}
		again, err := UnmarshalEnvelope(env.Marshal())
		if err != nil {
			t.Fatalf("re-encoded envelope does not decode: %v", err)
		}
		if again.Type != env.Type || again.Sender != env.Sender || again.Kind != env.Kind ||
			!bytes.Equal(again.Payload, env.Payload) || !bytes.Equal(again.Sig, env.Sig) ||
			!reflect.DeepEqual(again.Auth, env.Auth) {
			t.Fatalf("envelope round trip: got %+v, want %+v", again, env)
		}

		reps, err := UnmarshalReplyList(env.Payload)
		if err != nil {
			return
		}
		ptrs := make([]*Reply, len(reps))
		for i := range reps {
			ptrs[i] = &reps[i]
		}
		back, err := UnmarshalReplyList(MarshalReplyList(ptrs...))
		if err != nil {
			t.Fatalf("re-encoded reply list does not decode: %v", err)
		}
		if !reflect.DeepEqual(back, reps) {
			t.Fatalf("reply list round trip: got %+v, want %+v", back, reps)
		}
	})
}
