package surf

// Region is one mined region.
//
// Regions have a stable snake_case JSON form ("min", "max",
// "estimate", "score", "worms", "true_value", "verified",
// "satisfies") used by the HTTP serving layer; non-finite values
// encode as the strings "NaN", "+Inf" and "-Inf". See json.go.
type Region struct {
	// Min and Max bound the hyper-rectangle per filter dimension.
	Min, Max []float64
	// Estimate is the statistic value the optimizer's model assigned.
	Estimate float64
	// Score is the objective value (higher = better under the size
	// regularizer).
	Score float64
	// Worms is how many swarm particles converged to this region.
	Worms int
	// TrueValue and Satisfies are set when the region was verified
	// against the dataset.
	TrueValue float64
	Verified  bool
	Satisfies bool
}

// Result is a mining outcome.
//
// Results have a stable snake_case JSON form ("regions",
// "valid_particle_fraction", "compliance_rate", "elapsed_seconds");
// a skipped verification's NaN compliance rate encodes as the string
// "NaN".
type Result struct {
	// Regions are the mined regions, best objective first.
	Regions []Region
	// ValidParticleFraction is the share of swarm particles ending on
	// constraint-satisfying positions. Top-k answers have no
	// constraint and report 0.
	ValidParticleFraction float64
	// ComplianceRate is the fraction of regions that verified against
	// the true statistic (NaN when verification was skipped). Top-k
	// answers have no threshold to comply with and report NaN; their
	// verified regions carry TrueValue only.
	ComplianceRate float64
	// ElapsedSeconds is the mining wall-clock time.
	ElapsedSeconds float64
}
