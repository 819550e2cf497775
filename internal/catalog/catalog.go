// Package catalog implements a lightweight catalog server, the discovery
// component of the TaskVine ecosystem: managers advertise themselves with
// periodic updates, and status tools enumerate running managers without
// knowing their addresses in advance.
//
// The original cctools catalog accepts UDP updates and serves HTTP
// queries; this implementation speaks JSON over HTTP for both directions
// (POST /update, GET /query) and expires entries that stop refreshing.
package catalog

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"
)

// Entry is one advertised manager.
type Entry struct {
	// Name is the manager's advertised project name (applications pick
	// one; status tools filter by it).
	Name string `json:"name"`
	// Addr is the manager's worker-facing address.
	Addr string `json:"addr"`
	// StatusAddr is the manager's monitoring endpoint, if served.
	StatusAddr string `json:"status_addr,omitempty"`
	// Workers and TasksWaiting summarize load for status listings.
	Workers      int `json:"workers"`
	TasksWaiting int `json:"tasks_waiting"`
	TasksRunning int `json:"tasks_running"`
	// LastHeard is stamped by the catalog at update time.
	LastHeard time.Time `json:"last_heard"`
}

// Server is a running catalog.
type Server struct {
	mu      sync.Mutex
	entries map[string]Entry // guarded by mu; key: name
	ttl     time.Duration
	ln      net.Listener
	srv     *http.Server
	serving sync.WaitGroup
	clock   func() time.Time // guarded by mu
}

// NewServer starts a catalog on addr ("" means a loopback port). Entries
// expire after ttl without updates (default 60s).
func NewServer(addr string, ttl time.Duration) (*Server, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	if ttl <= 0 {
		ttl = 60 * time.Second
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("catalog: listening on %s: %w", addr, err)
	}
	s := &Server{
		entries: make(map[string]Entry),
		ttl:     ttl,
		ln:      ln,
		clock:   time.Now,
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/update", s.handleUpdate)
	mux.HandleFunc("/query", s.handleQuery)
	s.srv = &http.Server{Handler: mux}
	s.serving.Add(1)
	go func() {
		defer s.serving.Done()
		_ = s.srv.Serve(ln)
	}()
	return s, nil
}

// Addr returns the catalog's address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the catalog and waits for its serve goroutine to exit.
func (s *Server) Close() {
	_ = s.srv.Close()
	s.serving.Wait()
}

// SetClock substitutes the time source for expiry tests.
func (s *Server) SetClock(clock func() time.Time) {
	s.mu.Lock()
	s.clock = clock
	s.mu.Unlock()
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	var e Entry
	if err := json.NewDecoder(r.Body).Decode(&e); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if e.Name == "" || e.Addr == "" {
		http.Error(w, "name and addr required", http.StatusBadRequest)
		return
	}
	s.mu.Lock()
	e.LastHeard = s.clock()
	s.entries[e.Name] = e
	s.mu.Unlock()
	w.WriteHeader(http.StatusOK)
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.List(name))
}

// List returns live entries, optionally filtered by exact name, sorted by
// name. Expired entries are pruned.
func (s *Server) List(name string) []Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.clock()
	var out []Entry
	for key, e := range s.entries {
		if now.Sub(e.LastHeard) > s.ttl {
			delete(s.entries, key)
			continue
		}
		if name != "" && e.Name != name {
			continue
		}
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Client-side helpers.

// client is the shared HTTP client for catalog traffic. The default
// http.Client has no timeout at all, so a hung catalog would pin an
// advertiser goroutine forever;
// catalog exchanges are tiny, so a short overall deadline is safe.
var client = &http.Client{Timeout: 5 * time.Second}

// Update advertises an entry to the catalog at catalogAddr.
func Update(catalogAddr string, e Entry) error {
	body, err := json.Marshal(e)
	if err != nil {
		return err
	}
	resp, err := client.Post("http://"+catalogAddr+"/update", "application/json",
		bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("catalog: update: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("catalog: update: %s", resp.Status)
	}
	return nil
}

// Query lists managers advertised at catalogAddr, optionally filtered by
// project name.
func Query(catalogAddr, name string) ([]Entry, error) {
	url := "http://" + catalogAddr + "/query"
	if name != "" {
		url += "?name=" + name
	}
	resp, err := client.Get(url)
	if err != nil {
		return nil, fmt.Errorf("catalog: query: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("catalog: query: %s", resp.Status)
	}
	var out []Entry
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return out, nil
}

// Advertiser periodically publishes a manager's state to a catalog.
type Advertiser struct {
	catalogAddr string
	name        string
	interval    time.Duration
	snapshot    func() Entry
	stop        chan struct{}
	done        chan struct{}
}

// NewAdvertiser starts advertising snapshot() every interval (default 15s).
func NewAdvertiser(catalogAddr, name string, interval time.Duration, snapshot func() Entry) *Advertiser {
	if interval <= 0 {
		interval = 15 * time.Second
	}
	a := &Advertiser{
		catalogAddr: catalogAddr,
		name:        name,
		interval:    interval,
		snapshot:    snapshot,
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
	}
	go a.loop()
	return a
}

func (a *Advertiser) loop() {
	defer close(a.done)
	ticker := time.NewTicker(a.interval)
	defer ticker.Stop()
	a.publish()
	for {
		select {
		case <-ticker.C:
			a.publish()
		case <-a.stop:
			return
		}
	}
}

func (a *Advertiser) publish() {
	e := a.snapshot()
	e.Name = a.name
	// Best effort: a missing catalog must not disturb the manager.
	_ = Update(a.catalogAddr, e)
}

// Stop ends the advertisement loop.
func (a *Advertiser) Stop() {
	close(a.stop)
	<-a.done
}
