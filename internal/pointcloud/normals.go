package pointcloud

import (
	"math"

	"repro/internal/geom"
	"repro/internal/kdtree"
	"repro/internal/mat"
)

// EstimateNormals computes a unit surface normal per point by local PCA:
// the normal is the eigenvector of the k-neighborhood's covariance with the
// smallest eigenvalue. Normals are oriented toward the given viewpoint
// (the camera position), the standard disambiguation for depth scans.
//
// Point-to-plane ICP — the registration used by the KinectFusion-style
// pipeline the paper's srec kernel follows — needs these normals on the
// target cloud.
func (c *Cloud) EstimateNormals(k int, viewpoint geom.Vec3) []geom.Vec3 {
	return c.normalsFrom(kdtree.Build(3, c.Coords(), nil), k, viewpoint)
}

// normalsFrom is EstimateNormals over a caller-built index of the cloud in
// which point i carries payload i.
func (c *Cloud) normalsFrom(tree *kdtree.Tree, k int, viewpoint geom.Vec3) []geom.Vec3 {
	normals := make([]geom.Vec3, c.Len())
	if k < 3 {
		k = 3
	}
	q := make([]float64, 3)
	for i, p := range c.Points {
		q[0], q[1], q[2] = p.X, p.Y, p.Z
		nn := tree.KNearest(q, k)
		if len(nn) < 3 {
			normals[i] = geom.Vec3{Z: 1}
			continue
		}
		// Covariance of the neighborhood.
		var mean geom.Vec3
		for _, j := range nn {
			mean = mean.Add(c.Points[j])
		}
		mean = mean.Scale(1 / float64(len(nn)))
		cov := mat.New(3, 3)
		for _, j := range nn {
			d := c.Points[j].Sub(mean)
			cov.Set(0, 0, cov.At(0, 0)+d.X*d.X)
			cov.Set(0, 1, cov.At(0, 1)+d.X*d.Y)
			cov.Set(0, 2, cov.At(0, 2)+d.X*d.Z)
			cov.Set(1, 1, cov.At(1, 1)+d.Y*d.Y)
			cov.Set(1, 2, cov.At(1, 2)+d.Y*d.Z)
			cov.Set(2, 2, cov.At(2, 2)+d.Z*d.Z)
		}
		cov.Set(1, 0, cov.At(0, 1))
		cov.Set(2, 0, cov.At(0, 2))
		cov.Set(2, 1, cov.At(1, 2))

		vals, vecs := mat.SymEigen(cov)
		min := 0
		for j := 1; j < 3; j++ {
			if vals[j] < vals[min] {
				min = j
			}
		}
		normal := geom.Vec3{X: vecs.At(0, min), Y: vecs.At(1, min), Z: vecs.At(2, min)}
		nl := normal.Norm()
		if nl == 0 || math.IsNaN(nl) {
			normal = geom.Vec3{Z: 1}
		} else {
			normal = normal.Scale(1 / nl)
		}
		// Orient toward the viewpoint.
		if viewpoint.Sub(p).Dot(normal) < 0 {
			normal = normal.Scale(-1)
		}
		normals[i] = normal
	}
	return normals
}
