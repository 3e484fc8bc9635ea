package service

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"fpmix/internal/fleet"
	"fpmix/internal/remote"
)

// The daemon side of the remote-worker wire protocol (see
// internal/remote): four idempotent JSON RPCs plus the job-spec fetch.
// Every handler maps fleet.ErrUnknownWorker to 410 Gone, the signal a
// worker recovers from by re-registering — the standard outcome of a
// daemon restart, which empties the in-memory registry while worker
// processes survive.

// maxClaimWait clamps a worker's requested long-poll window so a
// buggy client cannot pin handler goroutines indefinitely.
const maxClaimWait = 30 * time.Second

func (s *Server) handleFleetRegister(w http.ResponseWriter, r *http.Request) {
	var req remote.RegisterRequest
	if err := readJSON(w, r, &req); err != nil {
		return
	}
	if req.Name == "" {
		req.Name = "worker"
	}
	id, hb, exp := s.pool.AddRemote(req.Name, req.Parallel, req.Batch)
	writeJSON(w, http.StatusOK, remote.RegisterResponse{
		ID:          id,
		HeartbeatMS: hb.Milliseconds(),
		ExpiryMS:    exp.Milliseconds(),
	})
}

func (s *Server) handleFleetHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req remote.HeartbeatRequest
	if err := readJSON(w, r, &req); err != nil {
		return
	}
	state, err := s.pool.HeartbeatLoad(req.Worker, req.InFlight)
	if err != nil {
		fleetError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, remote.HeartbeatResponse{State: string(state)})
}

func (s *Server) handleFleetClaim(w http.ResponseWriter, r *http.Request) {
	var req remote.ClaimRequest
	if err := readJSON(w, r, &req); err != nil {
		return
	}
	wait := time.Duration(req.WaitMS) * time.Millisecond
	if wait < 0 {
		wait = 0
	}
	if wait > maxClaimWait {
		wait = maxClaimWait
	}
	leases, state, err := s.pool.Claim(req.Worker, wait, req.Max, req.Held)
	if err != nil {
		fleetError(w, err)
		return
	}
	resp := remote.ClaimResponse{State: string(state)}
	for _, lease := range leases {
		resp.Leases = append(resp.Leases, remote.Lease{
			Job: lease.Job, Epoch: lease.Epoch, Unit: remote.ToWire(lease.Unit),
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleFleetReport(w http.ResponseWriter, r *http.Request) {
	var req remote.ReportRequest
	if err := readJSON(w, r, &req); err != nil {
		return
	}
	reports := make([]fleet.Report, len(req.Reports))
	for i, ur := range req.Reports {
		key, err := hex.DecodeString(ur.Key)
		if err != nil {
			// An undecodable key can never match a lease; judge the rest
			// of the batch normally and let this entry settle unaccepted
			// instead of failing its batchmates' deliveries with a 400.
			key = []byte("\x00undecodable:" + ur.Key)
		}
		reports[i] = fleet.Report{Job: ur.Job, Key: string(key), Epoch: ur.Epoch, Verdict: ur.Verdict}
		if ur.Error != "" {
			reports[i].Err = errors.New(ur.Error)
		}
	}
	accepted, err := s.pool.ReportBatch(req.Worker, reports)
	if err != nil {
		fleetError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, remote.ReportResponse{Accepted: accepted})
}

// handleJobSpec serves a job's spec so a remote worker can build the
// job's evaluation stack in its own address space.
func (s *Server) handleJobSpec(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.store.Get(id)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("no job %s", id))
		return
	}
	writeJSON(w, http.StatusOK, j.Spec)
}

// fleetError maps registry errors onto the wire: an unknown or retired
// worker gets 410 Gone (re-register), anything else 500.
func fleetError(w http.ResponseWriter, err error) {
	if errors.Is(err, fleet.ErrUnknownWorker) {
		httpError(w, http.StatusGone, err)
		return
	}
	httpError(w, http.StatusInternalServerError, err)
}

// readJSON decodes a bounded JSON request body, answering 400 itself
// on failure.
func readJSON(w http.ResponseWriter, r *http.Request, dst any) error {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 8<<20))
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("reading body: %w", err))
		return err
	}
	if err := json.Unmarshal(body, dst); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return err
	}
	return nil
}
