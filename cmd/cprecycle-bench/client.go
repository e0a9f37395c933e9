package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/sweep"
	"repro/internal/sweep/dist"
)

// submitClient drives a remote serve-mode or coordinator instance: it
// POSTs the spec, consumes the job's SSE stream end to end (one line of
// progress per completed point on stderr), and prints the final table on
// stdout — so `-submit -join URL` composes with shell pipelines exactly
// like a local run. Exit is non-nil when the job fails server-side or
// the stream breaks.
type submitClient struct{ api.Client }

func newSubmitClient(base, token string) *submitClient {
	// The zero HTTP client is http.DefaultClient: no overall timeout, as
	// the SSE stream legitimately lasts as long as the sweep.
	return &submitClient{api.Client{Base: strings.TrimRight(base, "/"), Token: token}}
}

// run submits the spec and follows it to completion.
func (c *submitClient) run(spec sweep.Spec) error {
	var prog sweep.Progress
	if err := c.Call(context.Background(), http.MethodPost, "/v1/jobs", spec, &prog); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "job %s: %s, %d points, %d packets\n", prog.ID, prog.Experiment, prog.Points, prog.Packets)

	final, err := c.follow(prog.ID)
	if err != nil {
		return err
	}
	if final.State != "done" {
		return fmt.Errorf("job %s %s: %s", prog.ID, final.State, final.Error)
	}
	return c.printTable(prog.ID)
}

// follow consumes the job's SSE stream to its terminal event. A broken
// stream (the connection dropped mid-sweep) is re-dialled with the
// standard Last-Event-ID header carrying the last point id seen, so the
// server resumes mid-stream instead of replaying every completed point.
func (c *submitClient) follow(id string) (sweep.Progress, error) {
	start := time.Now()
	lastEventID := ""
	var lastErr error
	for attempt := 0; attempt < 5; attempt++ {
		if attempt > 0 {
			fmt.Fprintf(os.Stderr, "event stream broke (%v); reconnecting after %q\n", lastErr, lastEventID)
			time.Sleep(time.Duration(attempt) * 500 * time.Millisecond)
		}
		final, done, err := c.followOnce(id, &lastEventID, start)
		if done || err == nil {
			return final, err
		}
		lastErr = err
	}
	return sweep.Progress{}, fmt.Errorf("event stream: %w", lastErr)
}

// followOnce dials the event stream once, resuming after lastEventID if
// set, and consumes it until the terminal event (done == true), a fatal
// error (done == true with err), or a retriable stream break (done ==
// false). lastEventID is updated as point events arrive.
func (c *submitClient) followOnce(id string, lastEventID *string, start time.Time) (final sweep.Progress, done bool, err error) {
	body, err := c.Open(context.Background(), "/v1/jobs/"+id+"/events", *lastEventID)
	if err != nil {
		// A server that answered with a non-OK status (job pruned, auth)
		// will not improve on retry; a transport error might.
		var se *api.StatusError
		return final, errors.As(err, &se), err
	}
	defer body.Close()
	var fatal error
	err = api.ReadSSE(body, func(ev api.Event) bool {
		switch ev.Event {
		case "point":
			var pe sweep.PointEvent
			if fatal = json.Unmarshal([]byte(ev.Data), &pe); fatal != nil {
				fatal = fmt.Errorf("bad point event %q: %w", ev.Data, fatal)
				return false
			}
			if ev.ID != "" {
				*lastEventID = ev.ID
			}
			fmt.Fprintf(os.Stderr, "point %d done (%d/%d, %v)\n", pe.Point, pe.DonePoints, pe.Points, time.Since(start).Round(time.Millisecond))
		case "done":
			if fatal = json.Unmarshal([]byte(ev.Data), &final); fatal != nil {
				fatal = fmt.Errorf("bad terminal event %q: %w", ev.Data, fatal)
			}
			done = true
			return false
		}
		return true
	})
	switch {
	case done || fatal != nil:
		return final, true, fatal
	case err != nil:
		return final, false, err
	}
	return final, false, fmt.Errorf("stream ended without a terminal event")
}

// showStatus renders the /v1/status snapshot as a dashboard header for
// -fleet. A 404 means an older server without the endpoint: skip
// silently, the worker table below still works.
func (c *submitClient) showStatus() error {
	var s statusSnapshot
	err := c.Call(context.Background(), http.MethodGet, "/v1/status", nil, &s)
	if api.IsStatus(err, http.StatusNotFound) {
		return nil
	}
	if err != nil {
		return err
	}
	fmt.Printf("%s up %s  jobs: %d running / %d done / %d failed\n",
		s.Mode, (time.Duration(s.UptimeSec) * time.Second).Round(time.Second),
		s.Jobs.Running, s.Jobs.Done, s.Jobs.Failed)
	if f := s.Fleet; f != nil {
		fmt.Printf("workers: %d active / %d draining  leases: %d in flight (%d granted, %d expired, %d pts re-queued)\n",
			f.WorkersActive, f.WorkersDraining, f.LeasesInflight, f.LeasesGranted, f.LeaseExpiries, f.RequeuedPoints)
		fmt.Printf("queue: %d points pending", f.QueueDepth)
		if f.LeaseEstSeconds > 0 {
			fmt.Printf("  est %.2gs/point", f.LeaseEstSeconds)
		}
		fmt.Println()
	}
	return nil
}

// listWorkers prints the coordinator's worker registry (-fleet).
func (c *submitClient) listWorkers() error {
	infos, err := api.ListAll[dist.WorkerInfo](context.Background(), c.Client, "/v1/dist/workers")
	if err != nil {
		return err
	}
	if len(infos) == 0 {
		fmt.Println("no registered workers")
		return nil
	}
	for _, wi := range infos {
		// prog is how long since the worker's freshest lease advanced a
		// packet — the wedged-worker tell an operator drains or revokes
		// on; "-" for workers holding no live lease.
		prog := "-"
		if wi.LastProgressSec >= 0 {
			prog = (time.Duration(wi.LastProgressSec) * time.Second).Round(time.Second).String()
		}
		fmt.Printf("%-4s %-20s %-9s leases=%-3d granted=%-5d age=%-8s idle=%-8s prog=%s\n",
			wi.ID, wi.Name, wi.State, wi.Leases, wi.Granted,
			(time.Duration(wi.AgeSec) * time.Second).Round(time.Second),
			(time.Duration(wi.IdleSec) * time.Second).Round(time.Second), prog)
	}
	return nil
}

// workerAction drives the coordinator's worker-lifecycle admin
// endpoints (-drain / -revoke), printing what the action means.
func (c *submitClient) workerAction(id, action string) error {
	if err := c.Call(context.Background(), http.MethodPost, "/v1/dist/workers/"+id+"/"+action, nil, nil); err != nil {
		return err
	}
	desc := "draining (finishes its in-flight lease, then deregisters)"
	if action == "revoke" {
		desc = "revoked (token dead, leases re-queued)"
	}
	fmt.Printf("worker %s %s\n", id, desc)
	return nil
}

// printTable fetches the finished job's rendered table to stdout.
func (c *submitClient) printTable(id string) error {
	body, err := c.Open(context.Background(), "/v1/jobs/"+id+"/table", "")
	if err != nil {
		return err
	}
	defer body.Close()
	_, err = io.Copy(os.Stdout, body)
	return err
}
