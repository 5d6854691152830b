package vec

import "math"

// M4 is a 4x4 matrix in row-major order, used for model/view/projection
// transforms. M[r][c] addresses row r, column c. Points are transformed as
// column vectors: p' = M * p.
type M4 [4][4]float64

// Identity returns the 4x4 identity matrix.
func Identity() M4 {
	return M4{
		{1, 0, 0, 0},
		{0, 1, 0, 0},
		{0, 0, 1, 0},
		{0, 0, 0, 1},
	}
}

// Translate returns a translation matrix by t.
func Translate(t V3) M4 {
	m := Identity()
	m[0][3] = t.X
	m[1][3] = t.Y
	m[2][3] = t.Z
	return m
}

// MulM returns the matrix product m * n.
func (m M4) MulM(n M4) M4 {
	var r M4
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			s := 0.0
			for k := 0; k < 4; k++ {
				s += m[i][k] * n[k][j]
			}
			r[i][j] = s
		}
	}
	return r
}

// MulPoint transforms point p (w=1) by m and performs the perspective
// divide. Points at w=0 are returned untransformed by the divide.
func (m M4) MulPoint(p V3) V3 {
	x, y, z, w := m.Row(0, p), m.Row(1, p), m.Row(2, p), m.Row(3, p)
	if w != 0 && w != 1 {
		inv := 1 / w
		return V3{x * inv, y * inv, z * inv}
	}
	return V3{x, y, z}
}

// MulPointW transforms point p (w=1) by m and returns the homogeneous
// result before the perspective divide.
func (m M4) MulPointW(p V3) (V3, float64) {
	return V3{m.Row(0, p), m.Row(1, p), m.Row(2, p)}, m.Row(3, p)
}

// Row returns coordinate r of m * p for point p (w=1), before any divide:
// the one copy of the product MulPoint and MulPointW make. It reads m
// through a pointer and inlines, so a caller that transforms many points
// by one matrix copies none of it per point.
func (m *M4) Row(r int, p V3) float64 {
	return m[r][0]*p.X + m[r][1]*p.Y + m[r][2]*p.Z + m[r][3]
}

// LookAt returns a right-handed view matrix placing the camera at eye,
// looking at center, with the given up direction — the same convention as
// gluLookAt. The result maps world space to camera space where the camera
// looks down -Z.
func LookAt(eye, center, up V3) M4 {
	f := center.Sub(eye).Norm()
	s := f.Cross(up.Norm()).Norm()
	u := s.Cross(f)
	m := Identity()
	m[0][0], m[0][1], m[0][2] = s.X, s.Y, s.Z
	m[1][0], m[1][1], m[1][2] = u.X, u.Y, u.Z
	m[2][0], m[2][1], m[2][2] = -f.X, -f.Y, -f.Z
	return m.MulM(Translate(eye.Neg()))
}

// Perspective returns a perspective projection matrix with the given
// vertical field of view (radians), aspect ratio (width/height) and
// near/far clip distances. The convention matches gluPerspective; after the
// perspective divide, visible coordinates land in [-1,1]^3 (NDC).
func Perspective(fovy, aspect, near, far float64) M4 {
	f := 1 / math.Tan(fovy/2)
	var m M4
	m[0][0] = f / aspect
	m[1][1] = f
	m[2][2] = (far + near) / (near - far)
	m[2][3] = 2 * far * near / (near - far)
	m[3][2] = -1
	return m
}
