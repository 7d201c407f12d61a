package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/pbft"
	"repro/pbft/metrics"
)

// call posts body to the gateway and decodes the reply, failing unless it
// has status want.
func call(t *testing.T, srv *httptest.Server, path, body string, want int) sqlResponse {
	t.Helper()
	resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	if resp.StatusCode != want {
		t.Fatalf("POST %s %.80s = %d %.200s, want %d", path, body, resp.StatusCode, raw, want)
	}
	var out sqlResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("POST %s: reply %.200q: %v", path, raw, err)
	}
	return out
}

// TestGatewayOverCluster serves the gateway's mux in front of an
// in-process SQL cluster and drives every endpoint. Requests are sent one
// at a time.
func TestGatewayOverCluster(t *testing.T) {
	o := pbft.DefaultOptions()
	o.RequestTimeout = 300 * time.Millisecond
	o.ViewChangeTimeout = time.Second
	c, err := harness.NewCluster(harness.ClusterOptions{
		Opts:       o,
		NumClients: 1,
		Seed:       56,
		App:        harness.NewSQLFactory(false, ""),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	cl, err := c.Client(0)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	srv := httptest.NewServer(newMux(&gateway{client: cl, metrics: metrics.NewClient()}, metrics.New()))
	defer srv.Close()

	// A fresh client's first statement can execute twice, so the first
	// request is one that may.
	call(t, srv, "/query", `{"sql":"SELECT 1"}`, http.StatusOK)

	call(t, srv, "/exec", `{"sql":"CREATE TABLE t (s TEXT, i INTEGER, f REAL, b INTEGER, n TEXT)"}`, http.StatusOK)
	res := call(t, srv, "/exec", `{"sql":"INSERT INTO t (s, i, f, b, n) VALUES (?,?,?,?,?)","args":["alice",42,2.5,true,null]}`, http.StatusOK)
	if res.RowsAffected == nil || *res.RowsAffected != 1 || res.LastInsertID == nil || *res.LastInsertID != 1 {
		t.Fatalf("insert reply = %+v, want rowsAffected 1 and lastInsertId 1", res)
	}
	wantRow := []any{"alice", 42.0, 2.5, 1.0, nil}
	for _, readOnly := range []string{"false", "true"} {
		res := call(t, srv, "/query", `{"sql":"SELECT s, i, f, b, n FROM t","readOnly":`+readOnly+`}`, http.StatusOK)
		if !reflect.DeepEqual(res.Columns, []string{"s", "i", "f", "b", "n"}) {
			t.Fatalf("readOnly=%s: columns = %v", readOnly, res.Columns)
		}
		if len(res.Rows) != 1 || !reflect.DeepEqual(res.Rows[0], wantRow) {
			t.Fatalf("readOnly=%s: rows = %v, want [%v]", readOnly, res.Rows, wantRow)
		}
	}

	resp, err := http.Get(srv.URL + "/exec")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /exec = %d, want %d", resp.StatusCode, http.StatusMethodNotAllowed)
	}
	for _, tc := range []struct {
		name, path, body string
		want             int
	}{
		{"malformed JSON", "/exec", `{"sql":`, http.StatusBadRequest},
		{"INSERT on /query", "/query", `{"sql":"INSERT INTO t (s) VALUES ('x')"}`, http.StatusBadRequest},
		{"object argument", "/exec", `{"sql":"INSERT INTO t (s) VALUES (?)","args":[{"a":1}]}`, http.StatusBadRequest},
		{"SQL error", "/query", `{"sql":"SELECT * FROM missing"}`, http.StatusUnprocessableEntity},
		{"body over one datagram", "/exec",
			`{"sql":"INSERT INTO t (s) VALUES (?)","args":["` + strings.Repeat("x", pbft.MaxDatagram) + `"]}`,
			http.StatusRequestEntityTooLarge},
	} {
		if res := call(t, srv, tc.path, tc.body, tc.want); res.Error == "" {
			t.Fatalf("%s: reply carries no error", tc.name)
		}
	}
	// None of the refused statements reached the table.
	res = call(t, srv, "/query", `{"sql":"SELECT count(*) FROM t"}`, http.StatusOK)
	if len(res.Rows) != 1 || !reflect.DeepEqual(res.Rows[0], []any{1.0}) {
		t.Fatalf("count after refusals = %v, want [[1]]", res.Rows)
	}

	for path, want := range map[string]string{
		"/healthz": "ok\n",
		"/metrics": "pbft_client_latency_seconds_count 7\n",
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), want) {
			t.Fatalf("GET %s = %d %q, want it to contain %q", path, resp.StatusCode, body, want)
		}
	}
}
