package dist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"drishti/internal/engine"
	"drishti/internal/obs/trace"
	"drishti/internal/serve/api"
	"drishti/internal/sim"
)

// This file is the multi-coordinator half of the fleet: consistent-hash
// ownership of sweep cells across N stateless coordinators sharing one
// store. The origin (the coordinator whose job service accepted the job)
// decomposes the sweep, keeps the cells it owns, and POSTs the rest to
// their ring owners (/v1/fleet/cells). Owners lease adopted cells to
// their own workers exactly like local ones and report each outcome back
// to the origin (/v1/fleet/cells/complete), preserving the per-cell
// FromStore flag so a multi-coordinator sweep assembles byte-identically
// to a single-node run. An owner that goes silent past ForwardTTL loses
// the cells back to the origin; the content-addressed store makes any
// duplicated execution idempotent.

// distribute partitions a job's unresolved cells by ring owner: cells this
// coordinator owns come back for local dispatch, peer-owned groups are
// forwarded. A peer that declines (or cannot be reached) returns its group
// to the local pile — forwarding is an optimization, never a dependency.
func (c *Coordinator) distribute(job *fleetJob, cells []*cellState, parent trace.SpanContext) []*cellState {
	local := make([]*cellState, 0, len(cells))
	byOwner := make(map[string][]*cellState)
	for _, cl := range cells {
		owner := c.ring.Owner(cl.spec.Key)
		if owner == c.opts.Self {
			local = append(local, cl)
		} else {
			byOwner[owner] = append(byOwner[owner], cl)
		}
	}
	for owner, group := range byOwner {
		if !c.forwardCells(owner, job, parent, group) {
			local = append(local, group...)
		}
	}
	return local
}

// forwardCells hands one peer-owned group to its owner. The cells are
// marked forwarded before the POST so a fast callback always finds them;
// a decline or transport error unwinds the marks and the caller runs the
// group locally.
func (c *Coordinator) forwardCells(owner string, job *fleetJob, parent trace.SpanContext, group []*cellState) bool {
	req := api.ForwardCellsRequest{
		APIVersion: api.Version,
		Origin:     c.opts.Self,
		JobID:      job.id,
		TraceID:    parent.TraceID,
		SpanID:     parent.SpanID,
		Cells:      make([]api.CellSpec, len(group)),
	}
	deadline := time.Now().Add(c.opts.ForwardTTL)
	c.mu.Lock()
	if job.forwarded == nil {
		job.forwarded = make(map[int]*cellState)
	}
	for i, cl := range group {
		req.Cells[i] = cl.spec
		cl.attempts++ // a forward consumes one attempt, like a lease grant
		cl.forwardDeadline = deadline
		job.forwarded[cl.spec.Index] = cl
	}
	c.mu.Unlock()

	var resp api.ForwardCellsResponse
	err := c.postJSON(owner+"/v1/fleet/cells", req, &resp)
	if err == nil && resp.Accepted {
		c.cForwarded.Add(uint64(len(group)))
		c.log.Info("cells forwarded", "peer", owner, "job", job.id, "cells", len(group))
		return true
	}
	if err != nil {
		c.log.Warn("cell forward failed; running locally", "peer", owner, "err", err)
	} else {
		c.log.Info("peer declined forwarded cells; running locally", "peer", owner, "reason", resp.Reason)
	}
	c.mu.Lock()
	for _, cl := range group {
		// A racing callback may have resolved a cell during the POST of a
		// partially-processed decline; leave those settled.
		if cl.forwardDeadline.IsZero() || cl.resolved {
			continue
		}
		cl.forwardDeadline = time.Time{}
		cl.attempts-- // the decline consumed no execution; refund the attempt
		delete(job.forwarded, cl.spec.Index)
	}
	c.mu.Unlock()
	return false
}

// adoptRemoteCells takes ownership of a peer's cells: store hits resolve
// (and call back) immediately, the rest join the pending queue and are
// leased to this coordinator's workers like local cells. Returns how many
// cells were queued for execution.
func (c *Coordinator) adoptRemoteCells(req api.ForwardCellsRequest) (int, error) {
	now := time.Now()
	c.mu.Lock()
	c.sweepLocked(now)
	alive := len(c.workers)
	c.mu.Unlock()
	if alive == 0 {
		// Declining keeps the contract honest: an owner with no workers
		// would strand the cells until ForwardTTL; the origin runs them
		// now instead.
		return 0, fmt.Errorf("no live workers")
	}
	if len(req.Cells) == 0 {
		return 0, nil
	}

	nw, np, err := req.Cells[0].Request.Grid()
	if err != nil {
		return 0, err
	}
	origin, jobID := req.Origin, req.JobID
	job := &fleetJob{
		id:        jobID,
		results:   make([]api.CellResult, nw*np),
		done:      make(chan struct{}),
		remote:    true,
		origin:    origin,
		remaining: len(req.Cells),
		trace:     trace.SpanContext{TraceID: req.TraceID, SpanID: req.SpanID},
	}
	job.sink = func(idx int, cell api.CellResult) {
		go c.sendForwardComplete(origin, api.ForwardCompleteRequest{
			APIVersion: api.Version,
			Owner:      c.opts.Self,
			JobID:      jobID,
			Index:      idx,
			FromStore:  cell.FromStore,
			Result:     cell.Result,
		})
	}
	job.onCellFailed = func(idx int, why string) {
		go c.sendForwardComplete(origin, api.ForwardCompleteRequest{
			APIVersion: api.Version,
			Owner:      c.opts.Self,
			JobID:      jobID,
			Index:      idx,
			Error:      why,
		})
	}

	var adopt []*cellState
	for _, spec := range req.Cells {
		cfg, mix, err := spec.Request.Cell(spec.WorkloadIndex, spec.PolicyIndex)
		if err != nil {
			return 0, err
		}
		// Re-derive and verify the content address, exactly like a worker:
		// origin/owner schema drift must fail loudly, not corrupt the store.
		if key := api.CellKey(cfg, mix); key != spec.Key {
			return 0, fmt.Errorf("cell %d key mismatch (schema drift between coordinators)", spec.Index)
		}
		cl := &cellState{
			job:      job,
			spec:     spec,
			policy:   cfg.Policy.DisplayName(),
			workload: spec.Request.WorkloadName(spec.WorkloadIndex),
			mixName:  mix.Name,
			groupKey: engine.GroupKey(cfg, mix),
		}
		var cached sim.Result
		hit, err := c.st.Get(spec.Key, &cached)
		if err != nil {
			return 0, err
		}
		if hit {
			c.mu.Lock()
			c.resolveCellLocked(cl, &cached, true) // sink fires the callback
			c.mu.Unlock()
		} else {
			adopt = append(adopt, cl)
		}
	}
	c.cRemote.Add(uint64(len(req.Cells)))
	c.mu.Lock()
	c.pending = append(c.pending, adopt...)
	c.gPending.Set(float64(len(c.pending)))
	c.mu.Unlock()
	c.log.Info("adopted forwarded cells", "origin", origin, "job", jobID,
		"cells", len(req.Cells), "queued", len(adopt))
	return len(adopt), nil
}

// forwardComplete applies one owner callback to the origin's job. False
// means the origin no longer wants it — job gone, or the cell was re-owned
// and resolved locally first.
func (c *Coordinator) forwardComplete(req api.ForwardCompleteRequest) bool {
	c.mu.Lock()
	job, ok := c.jobs[req.JobID]
	if !ok {
		c.mu.Unlock()
		return false
	}
	cl, ok := job.forwarded[req.Index]
	if !ok {
		c.mu.Unlock()
		return false
	}
	delete(job.forwarded, req.Index)
	cl.forwardDeadline = time.Time{}
	if req.Error != "" || req.Result == nil {
		why := req.Error
		if why == "" {
			why = "owner returned no result"
		}
		c.log.Warn("forwarded cell failed at owner; retrying locally",
			"owner", req.Owner, "job", req.JobID, "cell", req.Index, "err", why)
		c.requeueLocked(cl, time.Now(), why)
		c.mu.Unlock()
		return true
	}
	accepted := c.resolveCellLocked(cl, req.Result, req.FromStore)
	key := cl.spec.Key
	c.mu.Unlock()
	// Mirror the result into the origin's store: a no-op with a shared
	// sharded store, and the dedup guarantee with private directories.
	if accepted && !req.FromStore {
		if err := c.st.Put(key, req.Result); err != nil {
			c.log.Warn("forwarded-result store put failed", "err", err)
		}
	}
	return accepted
}

// sendForwardComplete reports one adopted cell's outcome to its origin,
// retrying transport errors a few times. If the origin stays unreachable
// it will re-own the cell at ForwardTTL; the shared store still dedups the
// recomputation.
func (c *Coordinator) sendForwardComplete(origin string, req api.ForwardCompleteRequest) {
	for attempt := 1; ; attempt++ {
		var resp api.ForwardCompleteResponse
		err := c.postJSON(origin+"/v1/fleet/cells/complete", req, &resp)
		if err == nil {
			if !resp.Accepted {
				c.log.Info("origin no longer wants forwarded cell",
					"origin", origin, "job", req.JobID, "cell", req.Index)
			}
			return
		}
		if attempt >= 3 {
			c.log.Warn("forward-complete callback abandoned",
				"origin", origin, "job", req.JobID, "cell", req.Index, "err", err)
			return
		}
		time.Sleep(time.Duration(attempt) * 200 * time.Millisecond)
	}
}

// postJSON is the peer-to-peer call: strict-decoded response, one schema
// generation. 409 Conflict still carries a decodable body (a refused
// completion), so it is not a transport error.
func (c *Coordinator) postJSON(url string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	resp, err := c.opts.Client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusConflict {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("%s: HTTP %d: %s", url, resp.StatusCode, bytes.TrimSpace(raw))
	}
	return api.DecodeStrict(resp.Body, out)
}

// handleForwardCells is POST /v1/fleet/cells (owner side).
func (c *Coordinator) handleForwardCells(w http.ResponseWriter, r *http.Request) {
	var req api.ForwardCellsRequest
	if err := api.DecodeStrict(r.Body, &req); err != nil {
		c.writeJSON(w, http.StatusBadRequest, api.Error{Error: "bad request body: " + err.Error()})
		return
	}
	if req.APIVersion != api.Version {
		c.writeJSON(w, http.StatusBadRequest, api.Error{Error: fmt.Sprintf(
			"peer speaks wire schema v%d, this coordinator requires v%d — upgrade the fleet together",
			req.APIVersion, api.Version)})
		return
	}
	queued, err := c.adoptRemoteCells(req)
	if err != nil {
		// A negotiated decline, not a transport failure: the origin runs
		// the cells itself.
		c.writeJSON(w, http.StatusOK, api.ForwardCellsResponse{Accepted: false, Reason: err.Error()})
		return
	}
	c.writeJSON(w, http.StatusOK, api.ForwardCellsResponse{Accepted: true, Queued: queued})
}

// handleForwardComplete is POST /v1/fleet/cells/complete (origin side).
func (c *Coordinator) handleForwardComplete(w http.ResponseWriter, r *http.Request) {
	var req api.ForwardCompleteRequest
	if err := api.DecodeStrict(r.Body, &req); err != nil {
		c.writeJSON(w, http.StatusBadRequest, api.Error{Error: "bad request body: " + err.Error()})
		return
	}
	if req.APIVersion != api.Version {
		c.writeJSON(w, http.StatusBadRequest, api.Error{Error: fmt.Sprintf(
			"peer speaks wire schema v%d, this coordinator requires v%d — upgrade the fleet together",
			req.APIVersion, api.Version)})
		return
	}
	if !c.forwardComplete(req) {
		c.writeJSON(w, http.StatusConflict, api.ForwardCompleteResponse{Accepted: false})
		return
	}
	c.writeJSON(w, http.StatusOK, api.ForwardCompleteResponse{Accepted: true})
}
