package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/durable"
)

// Journal-backed persistence (Config.JournalDir): every accepted job
// writes its request to <dir>/jobs/<id>/job.json before the submit
// response, suite-shaped jobs run through the engine's crash-resumable
// point journal under <dir>/jobs/<id>/engine/, and completed documents
// land in <dir>/jobs/<id>/result.json (durable.WriteFile, so a kill or
// crash mid-write never leaves a torn or empty document). A restarted daemon rescans the
// directory: finished jobs come back as cache entries, unfinished ones
// re-enqueue and — thanks to the engine journal — re-execute only the
// points that never completed. Adaptive jobs persist request and result
// but re-run from scratch on resume (the search shards round by round
// instead of journaling points).

func (s *Server) jobDir(id string) string {
	return filepath.Join(s.cfg.JournalDir, "jobs", id)
}

// engineJournalDir is the per-job engine point journal, empty when the
// daemon is not journal-backed or the job shape has no point journal.
func (s *Server) engineJournalDir(j *Job) string {
	if s.cfg.JournalDir == "" || j.spec.adaptive {
		return ""
	}
	return filepath.Join(s.jobDir(j.id), "engine")
}

// persistRequest writes the job's request durably before the submit
// response is sent — the contract that makes an accepted job survive a
// kill that lands a microsecond later.
func (s *Server) persistRequest(j *Job) error {
	if s.cfg.JournalDir == "" {
		return nil
	}
	dir := s.jobDir(j.id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	blob, err := json.MarshalIndent(j.req, "", "  ")
	if err != nil {
		return err
	}
	return durable.WriteFile(filepath.Join(dir, "job.json"), blob)
}

// persistResult stores a completed job's document.
func (s *Server) persistResult(j *Job, doc []byte) {
	if s.cfg.JournalDir == "" {
		return
	}
	// A persistence failure must not fail the job — the result is already
	// computed and served from memory; only restart durability degrades.
	_ = durable.WriteFile(filepath.Join(s.jobDir(j.id), "result.json"), doc)
}

// recover rescans the journal at startup: for every persisted job,
// either reload its finished result into the cache or re-enqueue it.
// Returns an error only for a corrupt journal root; individual unreadable
// jobs are skipped (a half-written job.json from a kill mid-submit is
// expected debris, not a reason to refuse to start).
func (s *Server) recover() error {
	if s.cfg.JournalDir == "" {
		return nil
	}
	root := filepath.Join(s.cfg.JournalDir, "jobs")
	entries, err := os.ReadDir(root)
	if errors.Is(err, os.ErrNotExist) {
		return os.MkdirAll(root, 0o755)
	}
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		id := e.Name()
		blob, err := os.ReadFile(filepath.Join(root, id, "job.json"))
		if err != nil {
			continue
		}
		req, err := decodeJobRequest(bytes.NewReader(blob))
		if err != nil {
			continue
		}
		spec, err := resolveRequest(req)
		if err != nil {
			continue
		}
		if fmt.Sprintf("%016x", spec.hash) != id {
			// The directory no longer matches the spec it claims to hold
			// (an edited registry, a renamed preset): skip rather than
			// serve a result under the wrong identity.
			continue
		}
		if doc, err := os.ReadFile(filepath.Join(root, id, "result.json")); err == nil {
			s.adoptFinished(spec, req, doc)
			continue
		}
		// Unfinished: re-enqueue. The engine journal under the job dir
		// makes the re-run resume its completed points.
		s.enqueueLocked(spec, req)
	}
	return nil
}

// adoptFinished installs a recovered finished job as a live cache entry.
func (s *Server) adoptFinished(spec jobSpec, req JobRequest, doc []byte) {
	j := s.newJob(spec, req)
	j.state = stateDone
	j.result = doc
	j.events.append("result", resultEvent{ID: j.id, State: stateDone})
	close(j.done)
	s.jobs[j.id] = j
	s.doneOrder = append(s.doneOrder, j.id)
}

// enqueueLocked creates and enqueues a job; the caller holds s.mu or has
// exclusive access (startup).
func (s *Server) enqueueLocked(spec jobSpec, req JobRequest) *Job {
	j := s.newJob(spec, req)
	s.jobs[j.id] = j
	s.pushLocked(j)
	return j
}
