// Package taskspec defines the task abstraction of TaskVine (§2.4): a unit
// of execution bound explicitly to the data objects it consumes and
// produces.
//
// A plain command task runs a Unix command line in a private sandbox. A
// function task invokes a named Go function with serialized arguments (the
// analogue of the paper's PythonTask / FunctionCall). A library task deploys
// a persistent library instance to a worker for serverless invocation. A
// MiniTask is a task specification executed on demand at a worker to
// materialize a file object (§3.1), e.g. unpacking an archive.

package taskspec

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"taskvine/internal/hashing"
	"taskvine/internal/resources"
)

// Kind discriminates the task modalities that may be mixed within a single
// workflow (§2.2).
type Kind int

const (
	// KindCommand is a Unix command line executed in a private sandbox.
	KindCommand Kind = iota
	// KindFunction is an invocation of a registered Go function, executed
	// either standalone or routed to a deployed library instance when
	// Library is set (a serverless FunctionCall).
	KindFunction
	// KindLibrary deploys a persistent library instance that serves
	// FunctionCall invocations for the rest of the workflow.
	KindLibrary
	// KindMini marks a task specification executed on demand to produce a
	// file object at a worker.
	KindMini
)

// String returns a readable name for the kind.
func (k Kind) String() string {
	switch k {
	case KindCommand:
		return "command"
	case KindFunction:
		return "function"
	case KindLibrary:
		return "library"
	case KindMini:
		return "minitask"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Mount binds a file object (by manager-assigned cache name) to the
// user-readable name under which it appears in the task sandbox (Figure 4).
type Mount struct {
	FileID string `json:"file_id"`
	Name   string `json:"name"`
}

// State describes where a task is in its lifecycle.
type State int

const (
	// StateDeclared means the task has been created but not submitted.
	StateDeclared State = iota
	// StateWaiting means the task is submitted and waiting for data
	// placement and a worker assignment.
	StateWaiting
	// StateStaging means the manager has chosen a worker and transfers of
	// missing inputs are in flight.
	StateStaging
	// StateRunning means the task is executing at a worker.
	StateRunning
	// StateDone means the task completed and results were retrieved.
	StateDone
	// StateFailed means the task exhausted its retries.
	StateFailed
	// StateReturning means the task has run and its outputs are streaming
	// back to the manager before it completes (the simulator's
	// shared-storage mode).
	StateReturning
)

// String returns a readable name for the state.
func (s State) String() string {
	switch s {
	case StateDeclared:
		return "declared"
	case StateWaiting:
		return "waiting"
	case StateStaging:
		return "staging"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	case StateFailed:
		return "failed"
	case StateReturning:
		return "returning"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Spec is the complete, serializable description of a task. It is the unit
// the manager dispatches to workers and the document from which on-demand
// file names are derived.
type Spec struct {
	ID   int  `json:"id"`
	Kind Kind `json:"kind"`

	// Command is the Unix command line for KindCommand and KindMini.
	Command string `json:"command,omitempty"`

	// Library names the library providing the function (KindFunction with
	// serverless dispatch) or the library this task deploys (KindLibrary).
	Library string `json:"library,omitempty"`
	// Function names the registered function to invoke (KindFunction).
	Function string `json:"function,omitempty"`
	// Args carries the serialized function arguments (KindFunction).
	Args []byte `json:"args,omitempty"`
	// ArgsFrom names a cached object whose contents replace Args at the
	// worker (KindFunction): the pass-by-reference leg of a chained
	// serverless call. The object must also appear as an input mount so
	// the scheduler stages it before dispatch.
	ArgsFrom string `json:"args_from,omitempty"`
	// Resident asks the worker to keep the function result in its cache
	// (memory tier when budgeted) under the declared output mounts instead
	// of shipping the bytes back inline; the manager hands the caller a
	// handle to the worker-resident object.
	Resident bool `json:"resident,omitempty"`

	Inputs  []Mount `json:"inputs,omitempty"`
	Outputs []Mount `json:"outputs,omitempty"`

	// Env is set in the task's execution environment.
	Env map[string]string `json:"env,omitempty"`

	// Resources is the fixed allocation the task consumes while running;
	// it is monitored and enforced at execution time (§2.1).
	Resources resources.R `json:"resources"`

	// MaxRetries is the retry contract: after a FAILED EXECUTION (nonzero
	// exit, worker-reported error, or resource exhaustion) the manager
	// re-executes the task up to MaxRetries times, so MaxRetries = N means
	// at most N+1 executions and exactly N re-executions before the task is
	// reported failed. Requeues that are not the task's fault consume NO
	// retry budget: dispatch failures (the send to the worker failed),
	// worker loss while staging or running, transfer failures during
	// staging (those have their own retry accounting in the manager), and
	// recovery re-execution of a completed producer whose temp output was
	// lost. MaxRetries = 0 (the default) therefore means one execution
	// attempt, retried only for the no-fault reasons above.
	MaxRetries int `json:"max_retries,omitempty"`

	// MaxRunSeconds bounds the task's execution wall time at the worker;
	// zero means unlimited. Exceeding it kills the task and reports a
	// failure (part of the execution-time enforcement of §2.1).
	MaxRunSeconds float64 `json:"max_run_seconds,omitempty"`

	// Category groups tasks that share a resource profile, for reporting.
	Category string `json:"category,omitempty"`
}

// Clone returns a deep copy of the spec, so a caller may mutate mounts and
// environment without aliasing the original.
func (s *Spec) Clone() *Spec {
	c := *s
	c.Inputs = append([]Mount(nil), s.Inputs...)
	c.Outputs = append([]Mount(nil), s.Outputs...)
	if s.Env != nil {
		c.Env = make(map[string]string, len(s.Env))
		for k, v := range s.Env {
			c.Env[k] = v
		}
	}
	c.Args = append([]byte(nil), s.Args...)
	return &c
}

// AddInput binds a declared file to a sandbox name as a task input.
func (s *Spec) AddInput(fileID, name string) {
	s.Inputs = append(s.Inputs, Mount{FileID: fileID, Name: name})
}

// AddOutput binds a sandbox name the task will produce to a declared file.
func (s *Spec) AddOutput(fileID, name string) {
	s.Outputs = append(s.Outputs, Mount{FileID: fileID, Name: name})
}

// SetEnv sets an environment variable in the task's private environment.
func (s *Spec) SetEnv(key, value string) {
	if s.Env == nil {
		s.Env = make(map[string]string)
	}
	s.Env[key] = value
}

// InputIDs returns the cache names of all inputs, in mount order.
func (s *Spec) InputIDs() []string {
	ids := make([]string, len(s.Inputs))
	for i, m := range s.Inputs {
		ids[i] = m.FileID
	}
	return ids
}

// Validate reports structural problems with the spec: duplicate sandbox
// names, missing command/function, or mounts with empty fields.
func (s *Spec) Validate() error {
	switch s.Kind {
	case KindCommand, KindMini:
		if strings.TrimSpace(s.Command) == "" {
			return fmt.Errorf("task %d: %s task with empty command", s.ID, s.Kind)
		}
	case KindFunction:
		if s.Function == "" {
			return fmt.Errorf("task %d: function task without function name", s.ID)
		}
		if s.ArgsFrom != "" {
			found := false
			for _, m := range s.Inputs {
				if m.FileID == s.ArgsFrom {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("task %d: args_from %q is not an input mount", s.ID, s.ArgsFrom)
			}
		}
		if s.Resident && len(s.Outputs) == 0 {
			return fmt.Errorf("task %d: resident function task without an output mount", s.ID)
		}
	case KindLibrary:
		if s.Library == "" {
			return fmt.Errorf("task %d: library task without library name", s.ID)
		}
	default:
		return fmt.Errorf("task %d: unknown kind %d", s.ID, int(s.Kind))
	}
	seen := make(map[string]bool)
	for _, m := range append(append([]Mount(nil), s.Inputs...), s.Outputs...) {
		if m.FileID == "" || m.Name == "" {
			return fmt.Errorf("task %d: mount with empty field: %+v", s.ID, m)
		}
		if strings.HasPrefix(m.Name, "/") || strings.Contains(m.Name, "..") {
			return fmt.Errorf("task %d: mount name %q escapes the sandbox", s.ID, m.Name)
		}
		if seen[m.Name] {
			return fmt.Errorf("task %d: duplicate sandbox name %q", s.ID, m.Name)
		}
		seen[m.Name] = true
	}
	if s.Kind == KindMini && len(s.Outputs) != 1 {
		return fmt.Errorf("task %d: a MiniTask must declare exactly one output, got %d", s.ID, len(s.Outputs))
	}
	return nil
}

// Document converts the spec into the canonical hashing document used to
// name its on-demand products (§3.2). The output parameter selects which
// declared output the name refers to.
func (s *Spec) Document(output string) hashing.TaskDocument {
	env := make([]string, 0, len(s.Env))
	for k, v := range s.Env {
		env = append(env, k+"="+v)
	}
	sort.Strings(env)
	inputs := make([][2]string, len(s.Inputs))
	for i, m := range s.Inputs {
		inputs[i] = [2]string{m.FileID, m.Name}
	}
	cmd := s.Command
	if s.Kind == KindFunction {
		cmd = "function:" + s.Library + "/" + s.Function + "#" + string(hashing.HashBytes(s.Args))
	}
	return hashing.TaskDocument{
		Command:   cmd,
		Resources: s.Resources.String(),
		Env:       env,
		Inputs:    inputs,
		Output:    output,
	}
}

// ProductName computes the content-independent cache name for the file this
// spec produces under the given output mount name: the hash of the producing
// task specification, computed recursively through its input names.
func (s *Spec) ProductName(output string) string {
	return hashing.Name(hashing.PrefixTask, hashing.HashTaskDocument(s.Document(output)))
}

// Marshal serializes the spec to JSON for the wire.
func (s *Spec) Marshal() ([]byte, error) { return json.Marshal(s) }

// Unmarshal parses a spec from JSON.
func Unmarshal(b []byte) (*Spec, error) {
	var s Spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, err
	}
	return &s, nil
}

// Builders for the built-in MiniTask wrappers the paper provides for common
// packaging and compression operations (§2.4, Figure 3's declare_untar).

// UntarSpec returns a MiniTask spec that unpacks the archive mounted as
// "input.tar" into a directory "output". The resources default to one core;
// disk should be set by the caller if the expanded size is known.
func UntarSpec(archiveFileID string) *Spec {
	s := &Spec{
		Kind:     KindMini,
		Command:  "mkdir -p output && tar -xf input.tar -C output",
		Category: "untar",
		Resources: resources.R{
			Cores: 1,
		},
	}
	s.AddInput(archiveFileID, "input.tar")
	return s
}

// GunzipSpec returns a MiniTask spec that decompresses the file mounted as
// "input.gz" to "output".
func GunzipSpec(gzFileID string) *Spec {
	s := &Spec{
		Kind:     KindMini,
		Command:  "gunzip -c input.gz > output",
		Category: "gunzip",
		Resources: resources.R{
			Cores: 1,
		},
	}
	s.AddInput(gzFileID, "input.gz")
	return s
}
