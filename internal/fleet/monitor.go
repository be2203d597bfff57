package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"

	"repro/internal/jobd"
	"repro/internal/jobd/store"
)

// monitor.go — the gateway's single-writer control loop. One pass runs
// per tick (and after any submit/registration kick):
//
//	probe     → every daemon's /healthz; DeadAfter consecutive transport
//	            failures declare it dead and requeue its children
//	place     → queued children go to the least-loaded alive daemon
//	poll      → placed children's states are pulled per daemon, batched
//	replicate → done children's result+schedule blobs land in the
//	            gateway store, after which the child is settled
//	persist   → array and settled-child manifests spill to the store so
//	            a restarted gateway resumes where it stopped
//
// Every step snapshots targets under g.mu, does its HTTP unlocked, and
// applies outcomes back under g.mu — daemon I/O never blocks the API.
// Requeue is sound because jobs are pure functions of their specs: the
// replacement run yields bit-identical bytes to the lost one.

// kickMonitor asks the monitor for an immediate extra pass (submit,
// registration); the nudge is merged if one is already pending.
func (g *Gateway) kickMonitor() {
	select {
	case g.kick <- struct{}{}:
	default:
	}
}

// monitorPass runs one full control-loop iteration.
func (g *Gateway) monitorPass() {
	g.probeDaemons()
	g.placeChildren()
	g.pollChildren()
	g.replicateResults()
	g.persistDirty()
}

// settledLocked reports whether the gateway is done with the child:
// failed and canceled children settle as soon as observed; done children
// settle once their result is replicated (or immediately, with no
// gateway store). A done child whose daemon dies before replication is
// requeued — determinism makes the rerun yield the same bytes.
func (g *Gateway) settledLocked(c *child) bool {
	switch c.state {
	case jobd.StateFailed, jobd.StateCanceled:
		return true
	case jobd.StateDone:
		return g.store == nil || c.resultHash != ""
	}
	return false
}

// probeDaemons health-checks every daemon and requeues the children of
// any daemon that just crossed the death threshold. Any HTTP response —
// including a degraded daemon's 503 — counts as alive; only transport
// failure counts against the daemon.
func (g *Gateway) probeDaemons() {
	g.mu.Lock()
	urls := make([]string, 0, len(g.daemons))
	for url := range g.daemons {
		urls = append(urls, url)
	}
	g.mu.Unlock()
	sort.Strings(urls)

	ok := map[string]bool{}
	for _, url := range urls {
		resp, err := g.client.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			ok[url] = true
		}
	}

	now := time.Now()
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, url := range urls {
		d := g.daemons[url]
		if d == nil {
			continue
		}
		if ok[url] {
			if !d.alive {
				g.logf("fleet: daemon %s alive", url)
			}
			d.alive = true
			d.fails = 0
			d.lastSeen = now
			continue
		}
		d.fails++
		if d.alive && d.fails >= g.cfg.DeadAfter {
			d.alive = false
			g.logf("fleet: daemon %s dead after %d failed probes", url, d.fails)
			g.requeueDaemonLocked(url)
		}
	}
}

// requeueDaemonLocked resets every unsettled child placed on a dead
// daemon back to queued so the placer re-runs it elsewhere; g.mu must be
// held.
func (g *Gateway) requeueDaemonLocked(url string) {
	for _, c := range g.children {
		if c.daemonURL != url || g.settledLocked(c) {
			continue
		}
		c.daemonURL = ""
		c.remoteID = ""
		c.state = jobd.StateQueued
		c.requeues++
		g.metrics.requeue()
		g.logf("fleet: requeued %s (daemon %s died)", c.id, url)
	}
}

// placeChildren submits every queued, unplaced child to the least-loaded
// alive daemon (load = unsettled gateway children placed there;
// deterministic URL tiebreak).
func (g *Gateway) placeChildren() {
	type placement struct {
		c   *child
		url string
	}
	var plan []placement
	g.mu.Lock()
	load := map[string]int{}
	alive := []string{}
	for url, d := range g.daemons {
		if d.alive {
			alive = append(alive, url)
			load[url] = 0
		}
	}
	if len(alive) == 0 {
		g.mu.Unlock()
		return
	}
	sort.Strings(alive)
	for _, c := range g.children {
		if c.daemonURL != "" && !g.settledLocked(c) {
			load[c.daemonURL]++
		}
	}
	var pending []*child
	for _, c := range g.children {
		if c.daemonURL == "" && c.state == jobd.StateQueued {
			pending = append(pending, c)
		}
	}
	sort.Slice(pending, func(i, j int) bool { return pending[i].id < pending[j].id })
	for _, c := range pending {
		best := ""
		for _, url := range alive {
			if best == "" || load[url] < load[best] {
				best = url
			}
		}
		load[best]++
		plan = append(plan, placement{c, best})
	}
	g.mu.Unlock()

	for _, p := range plan {
		body, err := json.Marshal(p.c.spec)
		if err != nil {
			continue
		}
		resp, err := g.client.Post(p.url+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			continue // the prober decides whether the daemon is dead
		}
		var st jobd.Status
		decodeErr := json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated || decodeErr != nil {
			g.logf("fleet: place %s on %s: status %d", p.c.id, p.url, resp.StatusCode)
			continue
		}
		g.mu.Lock()
		// The child may have been canceled while the submit was in flight.
		if p.c.daemonURL == "" && p.c.state == jobd.StateQueued {
			p.c.daemonURL = p.url
			p.c.remoteID = st.ID
			p.c.status = st
			p.c.state = st.State
		}
		g.mu.Unlock()
	}
}

// pollChildren pulls job states from every daemon hosting unsettled
// children, one batched GET /jobs per daemon. A placed child missing
// from its daemon's listing means the daemon lost its record (e.g. it
// restarted without its store) — the child is requeued.
func (g *Gateway) pollChildren() {
	g.mu.Lock()
	byDaemon := map[string][]*child{}
	for _, c := range g.children {
		if c.daemonURL != "" && !g.settledLocked(c) {
			byDaemon[c.daemonURL] = append(byDaemon[c.daemonURL], c)
		}
	}
	g.mu.Unlock()

	urls := make([]string, 0, len(byDaemon))
	for url := range byDaemon {
		urls = append(urls, url)
	}
	sort.Strings(urls)
	for _, url := range urls {
		resp, err := g.client.Get(url + "/jobs")
		if err != nil {
			continue
		}
		var list []jobd.Status
		decodeErr := json.NewDecoder(resp.Body).Decode(&list)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || decodeErr != nil {
			continue
		}
		remote := make(map[string]jobd.Status, len(list))
		for _, st := range list {
			remote[st.ID] = st
		}
		g.mu.Lock()
		for _, c := range byDaemon[url] {
			if c.daemonURL != url {
				continue // requeued meanwhile
			}
			st, ok := remote[c.remoteID]
			if !ok {
				c.daemonURL = ""
				c.remoteID = ""
				c.state = jobd.StateQueued
				c.requeues++
				g.metrics.requeue()
				g.logf("fleet: requeued %s (daemon %s forgot it)", c.id, url)
				continue
			}
			c.status = st
			c.state = st.State
		}
		g.mu.Unlock()
	}
}

// replicateResults copies done children's result and schedule blobs from
// their daemons into the gateway store and spills the child manifest, at
// which point the child is settled and survives both daemon loss and
// gateway restarts.
func (g *Gateway) replicateResults() {
	g.mu.Lock()
	st := g.store
	var cands []*child
	if st != nil {
		for _, c := range g.children {
			if c.state == jobd.StateDone && c.resultHash == "" && c.daemonURL != "" {
				cands = append(cands, c)
			}
		}
	}
	g.mu.Unlock()
	sort.Slice(cands, func(i, j int) bool { return cands[i].id < cands[j].id })

	for _, c := range cands {
		g.mu.Lock()
		url, remoteID := c.daemonURL, c.remoteID
		g.mu.Unlock()
		if url == "" {
			continue
		}
		result, ok := g.fetchBlob(url + "/jobs/" + remoteID + "/result")
		if !ok {
			continue
		}
		sched, ok := g.fetchBlob(url + "/jobs/" + remoteID + "/schedule")
		if !ok {
			continue
		}
		// Blobs land before the manifest referencing them, under one store
		// reservation — the same crash-ordering discipline the daemons use.
		release := st.Reserve()
		rh, err := st.PutBlob(result)
		var sh string
		if err == nil {
			sh, err = st.PutBlob(sched)
		}
		if err != nil {
			release()
			g.logf("fleet: replicate %s: %v", c.id, err)
			continue
		}
		g.mu.Lock()
		c.resultHash = rh
		c.schedHash = sh
		m := childManifestLocked(c)
		g.mu.Unlock()
		err = st.PutManifest(store.JobsBucket, c.id, &m)
		release()
		if err != nil {
			g.logf("fleet: persist %s: %v", c.id, err)
			continue
		}
		g.mu.Lock()
		c.persisted = true
		g.mu.Unlock()
		g.metrics.replicated()
		g.logf("fleet: replicated %s from %s", c.id, url)
	}
}

// fetchBlob GETs a daemon blob endpoint, returning ok only on a 200.
func (g *Gateway) fetchBlob(url string) ([]byte, bool) {
	resp, err := g.client.Get(url)
	if err != nil {
		return nil, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, false
	}
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, false
	}
	return blob, true
}

// gwChildManifest is the gateway store record of one settled child.
type gwChildManifest struct {
	ID       string     `json:"id"`
	Array    string     `json:"array"`
	Tenant   string     `json:"tenant"`
	Spec     jobd.Spec  `json:"spec"`
	State    jobd.State `json:"state"`
	Step     int        `json:"step"`
	Time     float64    `json:"time"`
	Solid    float64    `json:"solid"`
	Error    string     `json:"error,omitempty"`
	Requeues int        `json:"requeues,omitempty"`
	Result   string     `json:"result,omitempty"`   // blob hash in the gateway store
	Schedule string     `json:"schedule,omitempty"` // blob hash in the gateway store
}

// gwArrayManifest is the gateway store record of one array.
type gwArrayManifest struct {
	ID       string         `json:"id"`
	Tenant   string         `json:"tenant"`
	Name     string         `json:"name,omitempty"`
	Spec     jobd.ArraySpec `json:"spec"`
	Children int            `json:"children"`
}

// childManifestLocked builds a child's store manifest; g.mu must be held.
func childManifestLocked(c *child) gwChildManifest {
	return gwChildManifest{
		ID: c.id, Array: c.arrayID, Tenant: c.tenant, Spec: c.spec,
		State: c.state, Step: c.status.Step, Time: c.status.Time,
		Solid: c.status.Solid, Error: c.status.Error, Requeues: c.requeues,
		Result: c.resultHash, Schedule: c.schedHash,
	}
}

// persistDirty spills array manifests and settled children that have not
// reached the store yet (failed/canceled children have no blobs; done
// children were already persisted by replicateResults).
func (g *Gateway) persistDirty() {
	g.mu.Lock()
	st := g.store
	if st == nil {
		g.mu.Unlock()
		return
	}
	type arrayWork struct {
		arr *gwArray
		m   gwArrayManifest
	}
	type childWork struct {
		c *child
		m gwChildManifest
	}
	var arrays []arrayWork
	var children []childWork
	for _, arr := range g.sortedArrays() {
		if !arr.persisted {
			arrays = append(arrays, arrayWork{arr, gwArrayManifest{
				ID: arr.id, Tenant: arr.tenant, Name: arr.name,
				Spec: arr.spec, Children: len(arr.children),
			}})
		}
	}
	for _, c := range g.children {
		if !c.persisted && g.settledLocked(c) {
			children = append(children, childWork{c, childManifestLocked(c)})
		}
	}
	g.mu.Unlock()
	sort.Slice(children, func(i, j int) bool { return children[i].c.id < children[j].c.id })

	for _, w := range arrays {
		release := st.Reserve()
		err := st.PutManifest(store.ArraysBucket, w.m.ID, &w.m)
		release()
		if err != nil {
			g.logf("fleet: persist array %s: %v", w.m.ID, err)
			continue
		}
		g.mu.Lock()
		w.arr.persisted = true
		g.mu.Unlock()
	}
	for _, w := range children {
		release := st.Reserve()
		err := st.PutManifest(store.JobsBucket, w.m.ID, &w.m)
		release()
		if err != nil {
			g.logf("fleet: persist child %s: %v", w.m.ID, err)
			continue
		}
		g.mu.Lock()
		w.c.persisted = true
		g.mu.Unlock()
	}
}

// loadStore restores arrays and settled children a previous gateway
// instance spilled. Array specs re-expand deterministically, so children
// that never settled are rebuilt as queued and re-placed by the monitor
// — the reruns produce the same bytes the lost runs would have.
func (g *Gateway) loadStore() error {
	st := g.store
	err := st.Manifests(store.ArraysBucket, func(id string, blob []byte) error {
		var m gwArrayManifest
		if err := json.Unmarshal(blob, &m); err != nil {
			return fmt.Errorf("array manifest %s: %w", id, err)
		}
		specs, err := m.Spec.Expand()
		if err != nil {
			return fmt.Errorf("re-expand array %s: %w", id, err)
		}
		arr := &gwArray{id: m.ID, tenant: m.Tenant, name: m.Name, spec: m.Spec, persisted: true}
		var n int
		if _, err := fmt.Sscanf(m.ID, "fleet-%d", &n); err == nil {
			if n > g.nextArrayID {
				g.nextArrayID = n
			}
			arr.seq = int64(n)
		}
		for i, sp := range specs {
			c := &child{
				id:      fmt.Sprintf("%s.%03d", arr.id, i),
				arrayID: arr.id,
				tenant:  m.Tenant,
				spec:    sp,
				state:   jobd.StateQueued,
			}
			arr.children = append(arr.children, c)
			g.children[c.id] = c
		}
		g.arrays[arr.id] = arr
		return nil
	})
	if err != nil {
		return err
	}
	return st.Manifests(store.JobsBucket, func(id string, blob []byte) error {
		var m gwChildManifest
		if err := json.Unmarshal(blob, &m); err != nil {
			return fmt.Errorf("child manifest %s: %w", id, err)
		}
		c, ok := g.children[m.ID]
		if !ok {
			// The array manifest is best-effort; a settled child can outlive
			// it and still serve its replicated result standalone.
			c = &child{id: m.ID, arrayID: m.Array, tenant: m.Tenant, spec: m.Spec}
			g.children[m.ID] = c
		}
		c.state = m.State
		c.status = jobd.Status{ID: m.ID, State: m.State, Step: m.Step,
			Time: m.Time, Solid: m.Solid, Error: m.Error, Params: m.Spec.Params}
		c.requeues = m.Requeues
		c.resultHash = m.Result
		c.schedHash = m.Schedule
		c.persisted = true
		return nil
	})
}
