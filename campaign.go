package perfskel

import (
	"perfskel/internal/campaign"
)

// Campaign is a concurrent sweep engine over a grid of prediction cells
// (application × ranks × topology × scenario × K × scale mode). Every
// cell's value is memoized under a canonical content-addressed key, so
// shared baselines — the dedicated application run behind every
// prediction, the dedicated skeleton run behind every scenario — are
// simulated exactly once per campaign, and optionally cached on disk
// across processes. Results are byte-identical for any worker count.
type Campaign = campaign.Engine

// CampaignConfig tunes a campaign engine: worker-pool size, on-disk
// cache directory, per-cell telemetry, and the MPI cost model and
// skeleton construction defaults every cell inherits.
type CampaignConfig = campaign.Config

// CampaignCell is one unit of campaign work: an application on a
// topology under a scenario, either run directly (K = 0) or as its
// K-scaled skeleton.
type CampaignCell = campaign.Cell

// CampaignGrid is a declarative sweep: the cross product
// apps × Ks × scenarios at one rank count, expanded in deterministic
// order by Campaign.PredictAll.
type CampaignGrid = campaign.Grid

// CampaignApp is an application under a stable cache identity.
type CampaignApp = campaign.App

// CampaignRunResult is one executed cell's outcome. Dedicated runs and
// skeleton runs carry Stats; an application run (K == 0) under any other
// scenario is the measured actual, is only timed, and carries nil Stats.
type CampaignRunResult = campaign.RunResult

// CampaignStats counts an engine's cache traffic: memory hits, disk
// hits, misses, and simulations actually executed.
type CampaignStats = campaign.Stats

// Prediction is one grid cell's outcome: the skeleton-probe prediction
// of the application's time under the cell's scenario, plus the measured
// actual when the grid asked for it.
type Prediction = campaign.Prediction

// NewCampaign returns a campaign engine. The zero config uses GOMAXPROCS
// workers, no disk cache, and no telemetry.
func NewCampaign(cfg CampaignConfig) *Campaign { return campaign.New(cfg) }

// CampaignNASApp wraps a NAS benchmark as a campaign application; its
// cache identity is derived from the benchmark name and class.
func CampaignNASApp(name string, class Class) (CampaignApp, error) {
	return campaign.NASApp(name, class)
}

// CampaignCustomApp wraps an arbitrary program body under a
// caller-chosen cache identity. The caller owns the contract that the
// identity changes whenever the program's behaviour does.
func CampaignCustomApp(id string, fn App) CampaignApp {
	return campaign.CustomApp(id, fn)
}
