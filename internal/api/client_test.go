package api_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/api"
)

// testServer answers /v1/things with a two-item-per-page listing of
// five items, /v1/missing with the error envelope, /v1/bare with a
// body-less 502, and /v1/echo with the request's auth header and
// Last-Event-ID. Every route but /v1/bare requires the bearer token.
func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/things", func(w http.ResponseWriter, r *http.Request) {
		p, err := api.ParsePage(r, 2, 2)
		if err != nil {
			api.Error(w, http.StatusBadRequest, err)
			return
		}
		api.WriteJSON(w, http.StatusOK, api.Paginate([]int{1, 2, 3, 4, 5}, p))
	})
	mux.HandleFunc("GET /v1/missing", func(w http.ResponseWriter, r *http.Request) {
		api.ErrorCode(w, http.StatusNotFound, "not_found", `no job "j9"`)
	})
	mux.HandleFunc("POST /v1/echo", func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		api.WriteJSON(w, http.StatusOK, map[string]string{
			"auth": r.Header.Get("Authorization"), "type": r.Header.Get("Content-Type"), "body": string(body),
		})
	})
	mux.HandleFunc("GET /v1/echo", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, r.Header.Get("Last-Event-ID"))
	})
	root := http.NewServeMux()
	root.Handle("/v1/", api.BearerAuth("tok", mux))
	root.HandleFunc("/v1/bare", func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusBadGateway) })
	srv := httptest.NewServer(root)
	t.Cleanup(srv.Close)
	return srv
}

// TestClientErrorEnvelope pins that a failure answer becomes a
// *StatusError carrying the status and the decoded envelope, and that a
// body without an envelope still carries the status.
func TestClientErrorEnvelope(t *testing.T) {
	srv := testServer(t)
	c := api.Client{Base: srv.URL, Token: "tok"}
	ctx := context.Background()

	err := c.Call(ctx, http.MethodGet, "/v1/missing", nil, nil)
	var se *api.StatusError
	if !errors.As(err, &se) || *se != (api.StatusError{Status: 404, Code: "not_found", Message: `no job "j9"`}) {
		t.Fatalf("Call error %#v", err)
	}
	if got, want := err.Error(), `HTTP 404 (not_found): no job "j9"`; got != want {
		t.Errorf("Error() = %q, want %q", got, want)
	}
	if !api.IsStatus(err, http.StatusNotFound) || api.IsStatus(err, http.StatusGone) || api.IsStatus(errors.New("x"), 404) {
		t.Error("IsStatus does not match the carried status")
	}

	err = c.Call(ctx, http.MethodGet, "/v1/bare", nil, nil)
	if !api.IsStatus(err, http.StatusBadGateway) || err.Error() != "HTTP 502" {
		t.Errorf("envelope-less failure: %v", err)
	}
	if _, err := c.Open(ctx, "/v1/missing", ""); !api.IsStatus(err, http.StatusNotFound) {
		t.Errorf("Open on a failure: %v", err)
	}

	// The wrong token is answered 401 by BearerAuth's envelope.
	bad := api.Client{Base: srv.URL, Token: "nope"}
	if err := bad.Call(ctx, http.MethodGet, "/v1/things", nil, nil); !api.IsStatus(err, http.StatusUnauthorized) {
		t.Errorf("bad token: %v", err)
	}
	// Do reports statuses instead of failing on them.
	if status, err := bad.Do(ctx, http.MethodGet, "/v1/things", nil, nil); err != nil || status != http.StatusUnauthorized {
		t.Errorf("Do with a bad token: HTTP %d, %v", status, err)
	}
}

// TestClientRequests pins the request side: JSON body and bearer token
// out, a 200 body decoded, Last-Event-ID presented, and a paginated
// listing followed to its end.
func TestClientRequests(t *testing.T) {
	srv := testServer(t)
	c := api.Client{Base: srv.URL, Token: "tok", HTTP: srv.Client()}
	ctx := context.Background()

	var echo map[string]string
	status, err := c.Do(ctx, http.MethodPost, "/v1/echo", map[string]int{"n": 1}, &echo)
	if err != nil || status != http.StatusOK {
		t.Fatalf("Do: HTTP %d, %v", status, err)
	}
	if echo["auth"] != "Bearer tok" || echo["type"] != "application/json" || echo["body"] != `{"n":1}` {
		t.Errorf("server saw %v", echo)
	}

	body, err := c.Open(ctx, "/v1/echo", "41")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(body)
	body.Close()
	if string(got) != "41" {
		t.Errorf("Last-Event-ID sent as %q, want 41", got)
	}

	items, err := api.ListAll[int](ctx, c, "/v1/things")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(items) != "[1 2 3 4 5]" {
		t.Errorf("ListAll = %v", items)
	}
}
