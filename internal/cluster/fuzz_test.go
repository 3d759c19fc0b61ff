package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro"
	"repro/internal/server"
	"repro/internal/workload"
)

// compileHandler serves x86 alone with the given engine kind.
func compileHandler(f *testing.F, kind repro.Kind) http.Handler {
	reg := repro.NewRegistry()
	if err := reg.Add("x86", kind, repro.Options{}); err != nil {
		f.Fatal(err)
	}
	srv := server.New(reg, server.Config{Workers: 1})
	f.Cleanup(srv.Shutdown)
	return server.NewHandler(srv)
}

// postCompile sends body to h's POST /compile and returns the answer.
func postCompile(h http.Handler, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/compile", bytes.NewReader(body)))
	return rec
}

// outputs decodes a 200 answer's compiled outputs.
func outputs(t *testing.T, rec *httptest.ResponseRecorder) []server.CompileOutput {
	t.Helper()
	var resp server.CompileResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding a 200 answer: %v", err)
	}
	return resp.Outputs
}

// FuzzCompileHTTP: arbitrary bytes as a POST /compile body for x86. An
// ondemand handler and a dp handler must answer the same status, and on
// 200 the same outputs. A one-replica router must answer exactly what
// its replica answers: the same status, on 200 the same outputs (the
// request id and warmth snapshot differ by design), and otherwise the
// same error body. Seeds are the MinC corpus, every corpus forest as
// tree text, an empty body and a body one byte over the bound.
func FuzzCompileHTTP(f *testing.F) {
	m, err := repro.LoadMachine("x86")
	if err != nil {
		f.Fatal(err)
	}
	for _, c := range workload.MustCompileAll(m.Grammar) {
		body, _ := json.Marshal(server.CompileRequest{MinC: c.Program.Src})
		f.Add(body)
		for _, forest := range c.Forests() {
			body, _ := json.Marshal(server.CompileRequest{Trees: forest.String(m.Grammar)})
			f.Add(body)
		}
	}
	f.Add([]byte{})
	tree, _ := json.Marshal(server.CompileRequest{Trees: "ADD(REG[1], CNST[2])"})
	f.Add(append(tree, bytes.Repeat([]byte(" "), server.MaxCompileBodyBytes+1-len(tree))...))

	ondemand := compileHandler(f, repro.KindOnDemand)
	dp := compileHandler(f, repro.KindDP)
	fleet := bootFleet(f, []string{"x86"}, 1, 1)
	replica, router := fleet.replicas[0].Handler(), fleet.router.Handler()

	f.Fuzz(func(t *testing.T, body []byte) {
		got, want := postCompile(ondemand, body), postCompile(dp, body)
		if got.Code != want.Code {
			t.Fatalf("ondemand answered %d (%s), dp %d (%s)", got.Code, got.Body, want.Code, want.Body)
		}
		if got.Code == http.StatusOK && !reflect.DeepEqual(outputs(t, got), outputs(t, want)) {
			t.Fatalf("ondemand outputs %s differ from dp's %s", got.Body, want.Body)
		}

		routed, direct := postCompile(router, body), postCompile(replica, body)
		if routed.Code != direct.Code {
			t.Fatalf("router answered %d (%s), its replica %d (%s)", routed.Code, routed.Body, direct.Code, direct.Body)
		}
		if routed.Code == http.StatusOK {
			if !reflect.DeepEqual(outputs(t, routed), outputs(t, direct)) {
				t.Fatalf("routed outputs %s differ from the replica's %s", routed.Body, direct.Body)
			}
		} else if !bytes.Equal(routed.Body.Bytes(), direct.Body.Bytes()) {
			t.Fatalf("router answered %d with %s, its replica with %s", routed.Code, routed.Body, direct.Body)
		}
	})
}
