package main

import (
	"fmt"

	"repro/internal/bpl"
	"repro/internal/engine"
	"repro/internal/journal"
	"repro/internal/meta"
	"repro/internal/server"
	"repro/internal/wire"
)

// stack is damocles assembled in-process, without a listener, the way
// cmd/damocles assembles it: the audit replays acknowledged writes on a
// plain one to predict the project's final state, and the traced run times
// the public calls of each layer on plain and journaled ones.
type stack struct {
	db  *meta.DB
	eng *engine.Engine
	srv *server.Server
	jw  *journal.Writer // nil on a plain stack
}

func edtc() (*bpl.Blueprint, error) {
	return bpl.Parse(bpl.EDTCExample)
}

// newPlainStack is a server over meta.NewDB: no journal, no recorder, no
// MVCC publish.
func newPlainStack() (*stack, error) {
	bp, err := edtc()
	if err != nil {
		return nil, err
	}
	db := meta.NewDB()
	eng, err := engine.New(db, bp)
	if err != nil {
		return nil, err
	}
	return &stack{db: db, eng: eng, srv: server.New(eng)}, nil
}

// newJournalStack is a server over journal.Open(dir): engine and server
// carry the journal and commit it before every answer, like the daemon.
func newJournalStack(dir string, opts journal.Options) (*stack, error) {
	bp, err := edtc()
	if err != nil {
		return nil, err
	}
	jw, db, err := journal.Open(dir, opts)
	if err != nil {
		return nil, err
	}
	eng, err := engine.New(db, bp, engine.WithJournal(jw))
	if err != nil {
		jw.Close()
		return nil, err
	}
	return &stack{db: db, eng: eng, srv: server.New(eng, server.WithJournal(jw)), jw: jw}, nil
}

func (s *stack) close() {
	if s.jw != nil {
		s.jw.Close()
	}
}

// handle runs one request through Server.Handle and turns a refusal into
// an error.
func (s *stack) handle(req wire.Request) (wire.Response, error) {
	resp := s.srv.Handle(req)
	if !resp.OK {
		return resp, fmt.Errorf("%s: %s", req.Encode(), resp.Detail)
	}
	return resp, nil
}

func (s *stack) preload(trees int) error {
	for _, req := range Preload(trees) {
		if _, err := s.handle(req); err != nil {
			return fmt.Errorf("preload: %w", err)
		}
	}
	return nil
}
