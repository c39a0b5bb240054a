package algs

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/matrix"
)

// productDigest returns the SHA-256 of m's shape and of its elements' bits
// in row-major order.
func productDigest(m *matrix.Dense) string {
	buf := binary.LittleEndian.AppendUint64(nil, uint64(m.Rows()))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(m.Cols()))
	for i := range m.Rows() {
		for _, v := range m.Row(i) {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// TestProductBytes pins the SHA-256 of the bits of every registry
// algorithm's product on shapes that split evenly and unevenly, square and
// rectangular. "refused" marks a shape and P the algorithm rejects. The
// float sums of a product depend on which rank adds which partial product
// in which order, so a change to a rank body that keeps every word it moves
// must still leave these bits alone.
func TestProductBytes(t *testing.T) {
	cases := []struct {
		n1, n2, n3, p int
		want          map[string]string
	}{
		{64, 64, 64, 64, map[string]string{
			"Alg1":          "799ecbe4406ba9f69ba6c62998f9b28c1624051ab28b4ee1c32921f903b7408c",
			"AllToAll3D":    "54add8d2ac2969c9da6220b138ede49b61abaae4645cc5b55656e4f2f2b8787f",
			"CARMA":         "799ecbe4406ba9f69ba6c62998f9b28c1624051ab28b4ee1c32921f903b7408c",
			"Alg1LowMem":    "799ecbe4406ba9f69ba6c62998f9b28c1624051ab28b4ee1c32921f903b7408c",
			"OneD":          "65e68516f9eea73c1248d5a294924c9939b52520d3018ff43db619ef6134504a",
			"SUMMA":         "65e68516f9eea73c1248d5a294924c9939b52520d3018ff43db619ef6134504a",
			"Cannon":        "5d766ca03b86178cabe7a453321d9bbe1c25ba1654370bed4985e5bbfc84f439",
			"TwoPointFiveD": "799ecbe4406ba9f69ba6c62998f9b28c1624051ab28b4ee1c32921f903b7408c",
		}},
		{64, 64, 64, 8, map[string]string{
			"Alg1":          "b475e77164d10fc02d025f2f3c3e5ef7d1e6e1fff2f9f811122cb47544576ca3",
			"AllToAll3D":    "b475e77164d10fc02d025f2f3c3e5ef7d1e6e1fff2f9f811122cb47544576ca3",
			"CARMA":         "b475e77164d10fc02d025f2f3c3e5ef7d1e6e1fff2f9f811122cb47544576ca3",
			"Alg1LowMem":    "b475e77164d10fc02d025f2f3c3e5ef7d1e6e1fff2f9f811122cb47544576ca3",
			"OneD":          "65e68516f9eea73c1248d5a294924c9939b52520d3018ff43db619ef6134504a",
			"SUMMA":         "65e68516f9eea73c1248d5a294924c9939b52520d3018ff43db619ef6134504a",
			"Cannon":        "refused",
			"TwoPointFiveD": "b475e77164d10fc02d025f2f3c3e5ef7d1e6e1fff2f9f811122cb47544576ca3",
		}},
		{48, 48, 48, 16, map[string]string{
			"Alg1":          "a190003b533f73f67d0d745a5b2207afef2e9d07fa54984b5226ba024959f140",
			"AllToAll3D":    "a190003b533f73f67d0d745a5b2207afef2e9d07fa54984b5226ba024959f140",
			"CARMA":         "a190003b533f73f67d0d745a5b2207afef2e9d07fa54984b5226ba024959f140",
			"Alg1LowMem":    "a190003b533f73f67d0d745a5b2207afef2e9d07fa54984b5226ba024959f140",
			"OneD":          "22367757a37d1773f91f3abbbfce1d5923de001629ea337ad9d007e5b1ee0c51",
			"SUMMA":         "22367757a37d1773f91f3abbbfce1d5923de001629ea337ad9d007e5b1ee0c51",
			"Cannon":        "1ced571a34f1d5e1b173bf2ed43becef0ac3b4fb56b2a6a1b0c0eac8fbe2010d",
			"TwoPointFiveD": "1ced571a34f1d5e1b173bf2ed43becef0ac3b4fb56b2a6a1b0c0eac8fbe2010d",
		}},
		{96, 48, 32, 16, map[string]string{
			"Alg1":          "64e42d8aebab9598010759a78d1ba57ff30fe23d821576c1e43a8456fa001bbb",
			"AllToAll3D":    "64e42d8aebab9598010759a78d1ba57ff30fe23d821576c1e43a8456fa001bbb",
			"CARMA":         "64e42d8aebab9598010759a78d1ba57ff30fe23d821576c1e43a8456fa001bbb",
			"Alg1LowMem":    "64e42d8aebab9598010759a78d1ba57ff30fe23d821576c1e43a8456fa001bbb",
			"OneD":          "f8e8c7347ba454a3c0f45952e0db7706733619b3d08935386842f33f77c66a99",
			"SUMMA":         "f8e8c7347ba454a3c0f45952e0db7706733619b3d08935386842f33f77c66a99",
			"Cannon":        "1cf638e0bd6ccb767f916c3a34687054fecf7bf245eedf7b32dfb49804e07fad",
			"TwoPointFiveD": "refused",
		}},
		{36, 36, 36, 36, map[string]string{
			"Alg1":          "365a0fe7d7c64fd2c428523e2574aba423bebe43ddd5045f80547e04432dc8da",
			"AllToAll3D":    "a95c27c73f611f0d4bf901b3c8ade8d5a007ab9b085a943c739f77950f2dd6cc",
			"CARMA":         "refused",
			"Alg1LowMem":    "365a0fe7d7c64fd2c428523e2574aba423bebe43ddd5045f80547e04432dc8da",
			"OneD":          "4d4a31e399b96fd883e4a46a97cc069d9bca98dd44c0e6acd504cb27c9286dbc",
			"SUMMA":         "4d4a31e399b96fd883e4a46a97cc069d9bca98dd44c0e6acd504cb27c9286dbc",
			"Cannon":        "11ffb4ddeeb2ba6a30334a683b9a050701da3846cb05aef533425aea93a40dd7",
			"TwoPointFiveD": "11ffb4ddeeb2ba6a30334a683b9a050701da3846cb05aef533425aea93a40dd7",
		}},
	}
	for _, c := range cases {
		a, b := matrix.Random(c.n1, c.n2, 1), matrix.Random(c.n2, c.n3, 2)
		for _, e := range Registry() {
			got := "refused"
			res, err := e.Run(a, b, c.p, bwOpts())
			if err == nil {
				got = productDigest(res.C)
			}
			if want := c.want[e.Name]; got != want {
				t.Errorf("%s at %dx%dx%d on P=%d: product %s, want %s (%v)", e.Name, c.n1, c.n2, c.n3, c.p, got, want, err)
			}
		}
	}
}
