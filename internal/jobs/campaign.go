// Package jobs keeps one name alive for the repository benchmark, which
// still spells the campaign spec jobs.CampaignSpec. The job engine it once
// held is gone: the API server keeps every campaign in its own table. The
// next change to the benchmark switches it to campaign.Spec and deletes
// this package.
package jobs

import "repro/internal/campaign"

// CampaignSpec is campaign.Spec under its former name.
type CampaignSpec = campaign.Spec
