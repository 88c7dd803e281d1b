// Package task implements design tasks, the extension the paper's
// conclusion announces: "we are currently investigating ways to incorporate
// the notion of design tasks to the project BluePrint which gives a higher
// level of description of design activities and their environment."
//
// A Task is a named, ordered sequence of design steps.  Each step declares
// the state its inputs must be in (the same permission discipline wrapper
// programs apply, lifted to the task level) and an action that drives the
// wrapper session.  The runner tracks task execution in the meta-database
// itself: every run creates an OID of the task view, whose properties
// (status, step, failure) evolve as the task progresses, and posts
// task_start / task_step / task_done / task_failed events — so project
// BluePrints can attach run-time rules to tasks exactly as they do to
// design data.
package task

import (
	"errors"
	"fmt"

	"repro/internal/bpl"
	"repro/internal/engine"
	"repro/internal/meta"
	"repro/internal/wrapper"
)

// View is the view type under which task runs are tracked in the
// meta-database.
const View = "task"

// Task event names posted by the runner.
const (
	EventStart  = "task_start"
	EventStep   = "task_step"
	EventDone   = "task_done"
	EventFailed = "task_failed"
)

// ErrRequirement reports a step refusing to run because an input is not in
// the required state.
var ErrRequirement = errors.New("task: requirement not met")

// Requirement is a pre-condition on the latest version of a design object.
type Requirement struct {
	Block string
	View  string
	Prop  string
	Want  string
}

// Check evaluates the requirement against the database.
func (r Requirement) Check(db *meta.DB) error {
	k, err := db.Head().Latest(r.Block, r.View)
	if err != nil {
		return fmt.Errorf("%w: no %s.%s exists", ErrRequirement, r.Block, r.View)
	}
	v, _, err := db.Head().GetProp(k, r.Prop)
	if err != nil {
		return err
	}
	if v != r.Want {
		return fmt.Errorf("%w: %v %s=%q, want %q", ErrRequirement, k, r.Prop, v, r.Want)
	}
	return nil
}

// Step is one unit of a task.
type Step struct {
	Name    string
	Require []Requirement
	// Run performs the step against the session.
	Run func(*wrapper.Session) error
}

// Task is a named sequence of steps — a reusable, higher-level description
// of a design activity.
type Task struct {
	Name  string
	Steps []Step
}

// Validate checks the task shape.
func (t Task) Validate() error {
	if err := meta.ValidateName(t.Name); err != nil {
		return fmt.Errorf("task name: %w", err)
	}
	if len(t.Steps) == 0 {
		return fmt.Errorf("task %s: no steps", t.Name)
	}
	for i, s := range t.Steps {
		if s.Name == "" {
			return fmt.Errorf("task %s: step %d unnamed", t.Name, i)
		}
		if s.Run == nil {
			return fmt.Errorf("task %s: step %s has no action", t.Name, s.Name)
		}
	}
	return nil
}

// Record is the outcome of one task run.
type Record struct {
	// Key is the task-tracking OID; its properties mirror the fields
	// below.
	Key meta.Key
	// Status is "done" or "failed".
	Status string
	// StepsRun counts completed steps.
	StepsRun int
	// Failure holds the failing step's error text, if any.
	Failure string
}

// Runner executes tasks against a wrapper session.
type Runner struct {
	Sess *wrapper.Session
}

// NewRunner returns a task runner bound to a session.
func NewRunner(sess *wrapper.Session) *Runner { return &Runner{Sess: sess} }

// Run executes the task.  A failing requirement or step action marks the
// task failed but is not itself returned as an error; hard errors (broken
// database, bad task) are.  The returned record mirrors the tracking OID.
func (r *Runner) Run(t Task) (*Record, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	eng := r.Sess.Eng
	db := eng.DB()
	key, err := eng.CreateOID(t.Name, View, r.Sess.User)
	if err != nil {
		return nil, err
	}
	rec := &Record{Key: key, Status: "running"}
	set := func(name, value string) error { return db.SetProp(key, name, value) }
	if err := set("status", "running"); err != nil {
		return nil, err
	}
	if err := set("step", ""); err != nil {
		return nil, err
	}
	if err := r.post(EventStart, key, t.Name); err != nil {
		return nil, err
	}

	for i, s := range t.Steps {
		if err := set("step", s.Name); err != nil {
			return nil, err
		}
		if err := r.post(EventStep, key, s.Name); err != nil {
			return nil, err
		}
		if err := r.runStep(s); err != nil {
			rec.Status = "failed"
			rec.Failure = err.Error()
			if err := set("status", "failed"); err != nil {
				return nil, err
			}
			if err := set("failure", rec.Failure); err != nil {
				return nil, err
			}
			if err := r.post(EventFailed, key, s.Name); err != nil {
				return nil, err
			}
			return rec, nil
		}
		rec.StepsRun = i + 1
	}
	rec.Status = "done"
	if err := set("status", "done"); err != nil {
		return nil, err
	}
	if err := r.post(EventDone, key, t.Name); err != nil {
		return nil, err
	}
	return rec, nil
}

// runStep checks requirements then executes the action.
func (r *Runner) runStep(s Step) error {
	for _, req := range s.Require {
		if err := req.Check(r.Sess.Eng.DB()); err != nil {
			return err
		}
	}
	return s.Run(r.Sess)
}

// post emits a task event at the tracking OID and drains.
func (r *Runner) post(event string, key meta.Key, arg string) error {
	return r.Sess.Eng.PostAndDrain(engine.Event{
		Name: event, Dir: bpl.DirDown, Target: key,
		Args: []string{arg}, User: r.Sess.User,
	})
}

// Status reads the tracked status of a task run.
func Status(db *meta.DB, key meta.Key) (status, step, failure string, err error) {
	o, err := db.Head().GetOID(key)
	if err != nil {
		return "", "", "", err
	}
	return o.Props["status"], o.Props["step"], o.Props["failure"], nil
}

// History lists all runs of a named task, oldest first.
func History(db *meta.DB, name string) []meta.Key {
	var out []meta.Key
	for _, v := range db.Head().Versions(name, View) {
		out = append(out, meta.Key{Block: name, View: View, Version: v})
	}
	return out
}
