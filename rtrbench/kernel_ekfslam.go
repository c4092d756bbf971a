package rtrbench

import (
	"context"

	"repro/internal/core/ekfslam"
	"repro/internal/fault"
	"repro/internal/profile"
)

func init() {
	registerSpec(Info{
		Name: "ekfslam", Index: 2, Stage: Perception,
		Description:      "Simultaneous localization and mapping with an Extended Kalman Filter",
		PaperBottlenecks: []string{"Matrix operations"},
		ExpectDominant:   []string{"matrix"},
	}, spec[ekfslam.Config]{
		configure: func(o Options) (ekfslam.Config, error) {
			cfg := ekfslam.DefaultConfig()
			cfg.Seed = o.seed()
			if o.Size == SizeSmall {
				cfg.Steps = 120
			}
			return cfg, noVariant("ekfslam", o)
		},
		inject: func(cfg *ekfslam.Config, in *fault.Injector) { cfg.Sensor.Fault = in },
		// Final pose/landmark error checksums plus the update/rejection
		// counts: any drift in the filter math moves at least one of these.
		digest: digestOf("pose_error_m", "landmark_error_m", "landmarks_seen",
			"updates", "rejected", "uncertainty"),
		run: func(ctx context.Context, cfg ekfslam.Config, p *profile.Profile) (Result, error) {
			kr, err := ekfslam.Run(ctx, cfg, p)
			res := newResult("ekfslam", Perception, p.Snapshot())
			res.Metrics["pose_error_m"] = kr.PoseError
			res.Metrics["landmark_error_m"] = kr.MeanLandmarkError
			res.Metrics["landmarks_seen"] = float64(kr.LandmarksSeen)
			res.Metrics["updates"] = float64(kr.Updates)
			res.Metrics["rejected"] = float64(kr.Rejected)
			res.Metrics["uncertainty"] = kr.Uncertainty
			return res, err
		},
	})
}
