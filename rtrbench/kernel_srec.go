package rtrbench

import (
	"context"
	"fmt"

	"repro/internal/core/srec"
	"repro/internal/profile"
)

func init() {
	registerSpec(Info{
		Name: "srec", Index: 3, Stage: Perception,
		Description:      "3D scene reconstruction by ICP registration of depth scans",
		PaperBottlenecks: []string{"Point cloud operations", "matrix operations"},
		ExpectDominant:   []string{"correspondence"},
	}, spec[srec.Config]{
		configure: func(o Options) (srec.Config, error) {
			cfg := srec.DefaultConfig()
			cfg.Seed = o.seed()
			if o.Size == SizeSmall {
				cfg.Cols, cfg.Rows = 80, 60
				cfg.Iterations = 12
			}
			switch o.Variant {
			case "":
			case "plane":
				cfg.Method = srec.PointToPlane
			default:
				return cfg, fmt.Errorf("srec: unknown variant %q", o.Variant)
			}
			return cfg, nil
		},
		// Registration residuals and the ICP iteration/correspondence counts.
		digest: digestOf("rmse_m", "rot_error_rad", "trans_error_m",
			"iterations", "nn_queries", "source_points"),
		run: func(ctx context.Context, cfg srec.Config, p *profile.Profile) (Result, error) {
			kr, err := srec.Run(ctx, cfg, p)
			res := newResult("srec", Perception, p.Snapshot())
			res.Metrics["rmse_m"] = kr.RMSE
			res.Metrics["rot_error_rad"] = kr.RotationError
			res.Metrics["trans_error_m"] = kr.TranslationError
			res.Metrics["iterations"] = float64(kr.Iterations)
			res.Metrics["nn_queries"] = float64(kr.NNQueries)
			res.Metrics["source_points"] = float64(kr.SourcePoints)
			// Substrate work per query; a property of the index, not of the
			// registration, so it stays out of the digest.
			res.Metrics["dist_calls"] = float64(kr.DistCalls)
			return res, err
		},
	})
}
