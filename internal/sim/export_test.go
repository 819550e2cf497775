package sim

// StagingPlans returns how many staging plans the cluster has made.
func StagingPlans(c *Cluster) int { return c.plans }
