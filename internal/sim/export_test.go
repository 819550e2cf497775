package sim

// StagingPlans returns how many staging plans the cluster has made.
func StagingPlans(c *Cluster) int { return c.sched.Plans }

// hasReplica reports whether the named worker holds a ready replica of the
// named file.
func (c *Cluster) hasReplica(file, worker string) bool {
	f, _ := c.names.Files.Lookup(file)
	w, _ := c.names.Workers.Lookup(worker)
	return c.reps.Has(f, w)
}

// taskByID returns the task with the given workload ID.
func (c *Cluster) taskByID(id int) *simTask {
	for _, t := range c.tasks {
		if t.t.ID == id {
			return t
		}
	}
	return nil
}
