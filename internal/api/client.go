package api

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
)

// Client speaks the /v1 JSON surface: it sends JSON bodies with the
// bearer token, decodes JSON answers, and turns failures into a
// *StatusError carrying the status and the decoded error envelope. The
// zero HTTP client means http.DefaultClient. A Client is a small value;
// copy it to present a different token.
type Client struct {
	Base  string       // server base URL, e.g. "http://host:8080"
	Token string       // bearer token; empty sends no Authorization header
	HTTP  *http.Client // nil: http.DefaultClient
}

// StatusError is a non-2xx answer from a /v1 endpoint. Code and Message
// come from the error envelope when the body carried one.
type StatusError struct {
	Status  int
	Code    string
	Message string
}

func (e *StatusError) Error() string {
	if e.Message == "" {
		return fmt.Sprintf("HTTP %d", e.Status)
	}
	return fmt.Sprintf("HTTP %d (%s): %s", e.Status, e.Code, e.Message)
}

// IsStatus reports whether err is a *StatusError with the given status.
func IsStatus(err error, status int) bool {
	var se *StatusError
	return errors.As(err, &se) && se.Status == status
}

// send issues one request: body (when non-nil) goes out JSON-encoded,
// and a non-empty lastEventID as the Last-Event-ID header.
func (c Client) send(ctx context.Context, method, path string, body any, lastEventID string) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		payload, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.Token != "" {
		req.Header.Set("Authorization", "Bearer "+c.Token)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	hc := c.HTTP
	if hc == nil {
		hc = http.DefaultClient
	}
	return hc.Do(req)
}

// Do sends one request and returns the response status, decoding a 200
// body into out when out is non-nil. The error covers transport and
// decoding failures only: callers that act on particular statuses (the
// dist worker's 204/401/403/410 handling) read them from the status.
func (c Client) Do(ctx context.Context, method, path string, body, out any) (int, error) {
	resp, err := c.send(ctx, method, path, body, "")
	if err != nil {
		return 0, err
	}
	defer drain(resp.Body)
	if resp.StatusCode == http.StatusOK && out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}

// Call sends one request that must succeed: a 2xx body is decoded into
// out when out is non-nil, any other status becomes a *StatusError.
func (c Client) Call(ctx context.Context, method, path string, body, out any) error {
	resp, err := c.send(ctx, method, path, body, "")
	if err != nil {
		return err
	}
	defer drain(resp.Body)
	if err := statusErr(resp); err != nil {
		return err
	}
	if out != nil {
		return json.NewDecoder(resp.Body).Decode(out)
	}
	return nil
}

// Open GETs path and hands back the body of a 2xx answer for the caller
// to read and close — an SSE stream or a rendered table. A non-empty
// lastEventID goes out as Last-Event-ID, so an event stream resumes
// after it. Other statuses become a *StatusError.
func (c Client) Open(ctx context.Context, path, lastEventID string) (io.ReadCloser, error) {
	resp, err := c.send(ctx, http.MethodGet, path, nil, lastEventID)
	if err != nil {
		return nil, err
	}
	if err := statusErr(resp); err != nil {
		drain(resp.Body)
		return nil, err
	}
	return resp.Body, nil
}

// ListAll pages through the paginated /v1 listing (List[T] answers) at
// path, which carries no query, following next_cursor until the listing
// is exhausted.
func ListAll[T any](ctx context.Context, c Client, path string) ([]T, error) {
	var out []T
	next := path
	for {
		var page List[T]
		if err := c.Call(ctx, http.MethodGet, next, nil, &page); err != nil {
			return nil, err
		}
		out = append(out, page.Items...)
		if page.NextCursor == "" {
			return out, nil
		}
		next = path + "?cursor=" + page.NextCursor
	}
}

// statusErr decodes a non-2xx answer into a *StatusError (nil for 2xx).
func statusErr(resp *http.Response) error {
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		return nil
	}
	se := &StatusError{Status: resp.StatusCode}
	var e ErrorBody
	if json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&e) == nil {
		se.Code, se.Message = e.Error.Code, e.Error.Message
	}
	return se
}

// drain reads what is left of a body and closes it, so the connection
// can be reused.
func drain(body io.ReadCloser) {
	io.Copy(io.Discard, body)
	body.Close()
}
