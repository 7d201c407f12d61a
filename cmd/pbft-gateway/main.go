// Command pbft-gateway is the web front-end the paper's §3.3.3 finds
// missing from PBFT: browsers cannot speak the UDP, binary,
// quorum-collecting client protocol, so web applications need an
// HTTP/JSON gateway that embeds a real PBFT client.
//
// The gateway joins the replicated service as a dynamic client (or uses a
// static identity) and translates REST calls into ordered SQL requests.
// Handlers share one concurrent PBFT client and pipeline up to -pipeline
// requests at once, so simultaneous HTTP requests are not serialized:
//
//	pbft-gateway -dir ./deploy -listen 127.0.0.1:8080 -join gateway:secret
//
//	curl -s localhost:8080/query -d '{"sql":"SELECT voter, vote FROM votes"}'
//	curl -s localhost:8080/exec  -d '{"sql":"INSERT INTO votes (voter, vote, ts, rnd) VALUES (?,?,now(),random())","args":["alice","yes"]}'
//
// The paper's caveat applies and is worth repeating: the gateway is a
// centralized component in front of a decentralized service. Each
// organization should run its own gateway (or embed the client library
// directly); the BFT guarantees only cover what happens behind it.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/pbft"
	"repro/pbft/metrics"
	"repro/sqlstate"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "pbft-gateway:", err)
		os.Exit(1)
	}
}

func run() error {
	dir := flag.String("dir", "./deploy", "deployment directory")
	listen := flag.String("listen", "127.0.0.1:8080", "HTTP listen address")
	join := flag.String("join", "", "join dynamically with this identification buffer")
	id := flag.Uint("id", 0, "static client id (when not joining)")
	pipeline := flag.Int("pipeline", 0, "requests kept in flight at once (0 = deployment window)")
	logLevel := flag.String("log-level", "info", "log verbosity: debug|info|warn|error")
	flag.Parse()
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(*logLevel)); err != nil {
		return fmt.Errorf("bad -log-level %q: %w", *logLevel, err)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl}))
	copts := []pbft.ClientOption{pbft.WithPipelineDepth(*pipeline)}

	cl, conn, err := dial(*dir, *join, *id, copts)
	if err != nil {
		return err
	}
	defer cl.Close()
	// The gateway's UDP endpoint runs the same syscall-batched transport
	// as the replicas; register it so /metrics carries the pbft_udp_*
	// batching series alongside the HTTP request counters.
	udp := metrics.New()
	if uc, ok := conn.(*pbft.UDPConn); ok {
		udp.AddTransport(cl.ID(), uc.BatchStats)
	}

	gw := &gateway{client: cl, metrics: metrics.NewClient()}
	srv := &http.Server{
		Addr:              *listen,
		Handler:           newMux(gw, udp),
		ReadHeaderTimeout: 5 * time.Second,
	}
	logger.Info("gateway listening", "addr", *listen, "pipeline", *pipeline)
	return srv.ListenAndServe()
}

// newMux routes the gateway's endpoints: /exec and /query for SQL,
// /metrics for the client latency series plus the UDP endpoint's
// batching counters, and /healthz.
func newMux(gw *gateway, udp *metrics.Metrics) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/exec", gw.handleExec)
	mux.HandleFunc("/query", gw.handleQuery)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		gw.metrics.WritePrometheus(w)
		udp.WriteUDPStats(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// dial builds the client session for the deployment directory: either a
// dynamic client joining with the -join buffer, or the static identity
// -id from the deployment's key files.
func dial(dir, join string, id uint, copts []pbft.ClientOption) (*pbft.Client, pbft.Conn, error) {
	dep, err := pbft.LoadDeployment(filepath.Join(dir, "config.json"))
	if err != nil {
		return nil, nil, err
	}
	cfg, err := dep.Config()
	if err != nil {
		return nil, nil, err
	}
	if join != "" {
		kp, err := pbft.GenerateKeyPair(nil)
		if err != nil {
			return nil, nil, err
		}
		conn, err := pbft.ListenUDP("127.0.0.1:0")
		if err != nil {
			return nil, nil, err
		}
		cl, err := pbft.NewDynamicClient(cfg, kp, conn, copts...)
		if err != nil {
			conn.Close()
			return nil, nil, err
		}
		if err := cl.Join(context.Background(), []byte(join)); err != nil {
			cl.Close()
			return nil, nil, err
		}
		return cl, conn, nil
	}
	kp, err := pbft.LoadKeyFile(filepath.Join(dir, fmt.Sprintf("client-%d.key", int(id)-cfg.N())))
	if err != nil {
		return nil, nil, err
	}
	var addr string
	for _, c := range cfg.Clients {
		if c.ID == uint32(id) {
			addr = c.Addr
		}
	}
	if addr == "" {
		return nil, nil, fmt.Errorf("client id %d not in deployment", id)
	}
	conn, err := pbft.ListenUDP(addr)
	if err != nil {
		return nil, nil, err
	}
	cl, err := pbft.NewClient(cfg, uint32(id), kp, conn, copts...)
	if err != nil {
		conn.Close()
		return nil, nil, err
	}
	return cl, conn, nil
}

// gateway multiplexes HTTP requests over one concurrent PBFT client:
// handlers submit directly and the client pipelines up to its window,
// blocking the excess — one endpoint serves many simultaneous users
// without a client identity per user.
type gateway struct {
	client *pbft.Client
	// metrics aggregates request counts and PBFT call latency, exposed
	// at /metrics in the Prometheus text format.
	metrics *metrics.ClientMetrics
}

type sqlRequest struct {
	SQL  string `json:"sql"`
	Args []any  `json:"args"`
	// ReadOnly uses the optimized read-only path for SELECTs.
	ReadOnly bool `json:"readOnly"`
}

type sqlResponse struct {
	Columns      []string `json:"columns,omitempty"`
	Rows         [][]any  `json:"rows,omitempty"`
	RowsAffected *int64   `json:"rowsAffected,omitempty"`
	LastInsertID *int64   `json:"lastInsertId,omitempty"`
	Error        string   `json:"error,omitempty"`
}

func (g *gateway) handleExec(w http.ResponseWriter, r *http.Request) {
	g.handle(w, r, false)
}

func (g *gateway) handleQuery(w http.ResponseWriter, r *http.Request) {
	g.handle(w, r, true)
}

func (g *gateway) handle(w http.ResponseWriter, r *http.Request, query bool) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	// A body over one datagram could never be sent to the replicas, so
	// it is refused before it is read in full.
	var req sqlRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, pbft.MaxDatagram)).Decode(&req); err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, status, sqlResponse{Error: "bad request: " + err.Error()})
		return
	}
	if query && !strings.HasPrefix(strings.ToUpper(strings.TrimSpace(req.SQL)), "SELECT") {
		writeJSON(w, http.StatusBadRequest, sqlResponse{Error: "/query accepts SELECT only"})
		return
	}
	args, err := jsonArgs(req.Args)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, sqlResponse{Error: err.Error()})
		return
	}
	var body []byte
	if query {
		body = sqlstate.EncodeQuery(req.SQL, args...)
	} else {
		body = sqlstate.EncodeExec(req.SQL, args...)
	}

	var raw []byte
	start := time.Now()
	if query && req.ReadOnly {
		raw, err = g.client.InvokeReadOnly(r.Context(), body)
	} else {
		raw, err = g.client.Invoke(r.Context(), body)
	}
	g.metrics.Observe(time.Since(start), err)
	if err != nil {
		writeJSON(w, http.StatusBadGateway, sqlResponse{Error: "service: " + err.Error()})
		return
	}
	resp, err := sqlstate.DecodeResponse(raw)
	if err != nil {
		writeJSON(w, http.StatusUnprocessableEntity, sqlResponse{Error: err.Error()})
		return
	}
	out := sqlResponse{}
	if resp.Result != nil {
		out.RowsAffected = &resp.Result.RowsAffected
		out.LastInsertID = &resp.Result.LastInsertID
	}
	if resp.Rows != nil {
		out.Columns = resp.Rows.Columns
		for _, row := range resp.Rows.Data {
			jsRow := make([]any, 0, len(row))
			for _, v := range row {
				jsRow = append(jsRow, valueToJSON(v))
			}
			out.Rows = append(out.Rows, jsRow)
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// jsonArgs maps JSON values onto SQL values.
func jsonArgs(in []any) ([]sqlstate.Value, error) {
	out := make([]sqlstate.Value, 0, len(in))
	for i, a := range in {
		switch v := a.(type) {
		case nil:
			out = append(out, sqlstate.Null())
		case bool:
			if v {
				out = append(out, sqlstate.Int(1))
			} else {
				out = append(out, sqlstate.Int(0))
			}
		case float64:
			if v == float64(int64(v)) {
				out = append(out, sqlstate.Int(int64(v)))
			} else {
				out = append(out, sqlstate.Real(v))
			}
		case string:
			out = append(out, sqlstate.Text(v))
		default:
			return nil, fmt.Errorf("argument %d: unsupported JSON type %T", i+1, a)
		}
	}
	return out, nil
}

func valueToJSON(v sqlstate.Value) any {
	switch v.T {
	case sqlstate.TNull:
		return nil
	case sqlstate.TInt:
		return v.I
	case sqlstate.TReal:
		return v.F
	case sqlstate.TBlob:
		return v.Blob
	default:
		return v.AsText()
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
