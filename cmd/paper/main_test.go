package main

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"repro/internal/experiments"
)

// artifactSHA256 pins the SHA-256 of each artifact's Text and CSV, in the
// order paper prints them with no -only flag, which is experiments.All's.
// A change that alters any table, chart or CSV of the paper must update the
// digest it moves, on purpose.
var artifactSHA256 = []struct{ id, text, csv string }{
	{"E1-table1", "eb3d43fddb2a860f22a6b4190baf816ede6303c8e2ba4f90deed667d26cfbc4a", "a627c9ac8669beb0814c95adbb0c3a1c691faee024c4e5717534490730076241"},
	{"E2-lemma2", "14388a21612cafa1128743dc58fd47fd68c9e930f0473cff9e6f3432bd2a72d5", "bc701acf383006dacd1b826bb320f2038cd6d930a293af46710412d59c0b4897"},
	{"E3-bound-curves", "fb0c25624761a18d393438b08676883fe7fa63f4d76b19d727e397eb2035a927", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
	{"E5-figure2", "0d6a503028903f09f8af728f352f40f009abb0422481412734cdd0c0df3cfd1f", "d31efb63c5f1891bf2d251bfdac78b0aae3acc2c7a9c33c2fc3050bc73e6278f"},
	{"E8-limited-memory", "108b093a11eae79718f641e9fd362f235b86408a2a22d0c8fbca6a9ca30f0824", "6a17340cf41420535241b6af909262ff00b947da002fa084e2fd8a75fbf3c22a"},
	{"E4-figure1", "337936d8bd24f5babcb7990d877ccfa6a7c6ae66703d8f593220dffdd2ee7149", "f31f18b1ff4fdce24aafa2960d5dd7bba92842d25e2fd423bdf81ac9f86b0370"},
	{"E6-tightness", "ab4cdaa9b0d530ff8f89d46c30a2bb56f6450c5bcf460e2d3f79c653f8162c77", "9f6de45a76045e49b1c27926427bb6da58918da16ad49c9ee81fc734d922ce97"},
	{"E7-algorithms", "a50cb67563ea44ff1da60422278b3cade39ae9c6fd8e31199e7a37e1eddcae12", "e149e7f328d70bdf3f6b21b8a995ac72fee066318f275c36ba87718ea99b48ac"},
	{"E9-geometry", "0d404a9295390bf5a67a48719f067353f9d52cae4c69deddb777bc37fde345c3", "f6303464d75e1141363f6371708b9265c71ba087319bf711eb339b9c364caa40"},
	{"E10-carma", "a0a71fad4eae1e0774e45c93c24d634475e71ec73c4ea1510b86f3e8c2e66179", "42aae9a865b357f9b8b5f9901c8d4c50001e67890ed0b7aac2c81f6bbeefcf6c"},
	{"E11-extension", "7ca550f109a389cc930c5561cb953ddec9801c74cc963fc6cd8a0c423544a56f", "4c0a44fece4458eb442db8d1d806fe72850db605c356e67b8164a93c6b96b572"},
	{"E12-runtime", "6d9bc98ccaf6b7a304117165eff30ad60d170203ae1f0cd9f91debae7711247c", "e580d04d057a421e6cf202f64f2a12dd4a0d8a5d9e72c1770260da31ab7f68ba"},
	{"E13-fastmm", "c80fab346eb2931828574c45dd7ce925324909a8ddfc0e77c0d1c371afc1e44f", "dcc31a38d4d429a269132b3fe9276520d24ece54918f54bb00e275793e052656"},
	{"E14-models", "11170620a4cdf818e8afed23dd962c81768fafc238998c235eacc7addfe6cd6d", "fdc3445d4b7cd1f08d761ac06262a3992cf6649a15e262c9813e83a156b6f971"},
	{"E15-caps", "15ca4e69dfd6182d4f8f4f3ca8e5e52e9f8d2579b4972c99be0c379ea568eb47", "8b54e65294659487cc039d67633153c54e2b28535900e573e544a9e79f839c4d"},
	{"E16-memtradeoff", "2f325d7ca3cb1ec5743bb2309f5bb016bf87e08fb8ba32951657fcb6dd29dd0a", "dca1a1437a5c0d994a2e6c97d0def167eea8ff69ba0c58356fabbfae7d0cba78"},
	{"E17-topology", "10d74d8c4fd24379912dd76370052fd9000fb265e6b53f53760b6780581165dd", "db814504e17678d3ab0e6cff71615c9c1747bc08e7cf0506241a46273204b85a"},
	{"E19-hbl", "16a128798e7749b0e9e260b0b40c939947fbff8e671651f643d9a0f44e7897cf", "5490b304d8d97ed98456386966f691988e1e9d903d9f4fa0be79ab6b00ec6a0f"},
	{"E1b-table1-numeric", "59e57ba7de55985286c7739bc01d67fb96344aab591a72311dd863a2214bf37a", "93a352233cadc3618e62248a5f46247e2dadd63419c28e24d4e3468730161e9e"},
	{"E7b-strong-scaling", "9bbd4c2232d9d44b5ea3bceb7968c18984d8d1a5485e8ada92fd48ded57390e4", "43eecc75fbea3f9f07bbe287cf89c7b23165b53da47921abef204f94d9a728f0"},
}

// TestArtifactBytes regenerates every artifact paper prints by default and
// compares the digests of its Text and CSV with the recorded ones, at
// GOMAXPROCS 1 and 4: neither the sweep pool's width nor the simulator's
// shard count, which both follow it, may change a byte.
func TestArtifactBytes(t *testing.T) {
	digest := func(s string) string {
		sum := sha256.Sum256([]byte(s))
		return hex.EncodeToString(sum[:])
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		arts, err := selectArtifacts("")
		if err != nil {
			t.Fatal(err)
		}
		if len(arts) != len(artifactSHA256) {
			t.Errorf("GOMAXPROCS=%d: %d artifacts, recorded %d", procs, len(arts), len(artifactSHA256))
		}
		for i, a := range arts {
			if i >= len(artifactSHA256) {
				t.Errorf("{%q, %q, %q},", a.ID, digest(a.Text), digest(a.CSV))
				continue
			}
			want := artifactSHA256[i]
			if a.ID != want.id {
				t.Errorf("GOMAXPROCS=%d: artifact %d is %s, recorded %s", procs, i, a.ID, want.id)
			}
			if got := digest(a.Text); got != want.text {
				t.Errorf("GOMAXPROCS=%d %s: Text SHA-256 %s, recorded %s", procs, a.ID, got, want.text)
			}
			if got := digest(a.CSV); got != want.csv {
				t.Errorf("GOMAXPROCS=%d %s: CSV SHA-256 %s, recorded %s", procs, a.ID, got, want.csv)
			}
		}
	}
}

// TestOnlyMatchesDefaultRun: every -only name but fabricscale, which the
// default run leaves out, selects artifacts the default run prints with
// the same ID, Text and CSV, and each artifact of the default run answers
// to exactly one name.
func TestOnlyMatchesDefaultRun(t *testing.T) {
	all, err := selectArtifacts("")
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string]experiments.Artifact{}
	for _, a := range all {
		byID[a.ID] = a
	}
	selected := map[string]bool{}
	for _, name := range experiments.Names() {
		if name == "fabricscale" {
			continue
		}
		arts, err := selectArtifacts(name)
		if err != nil {
			t.Errorf("-only %s: %v", name, err)
			continue
		}
		if len(arts) == 0 {
			t.Errorf("-only %s selects nothing", name)
		}
		for _, a := range arts {
			if want, ok := byID[a.ID]; !ok || a != want {
				t.Errorf("-only %s: %s differs from the default run's", name, a.ID)
			}
			if selected[a.ID] {
				t.Errorf("-only %s: %s is listed under two names", name, a.ID)
			}
			selected[a.ID] = true
		}
	}
	for _, a := range all {
		if !selected[a.ID] {
			t.Errorf("no -only name selects %s", a.ID)
		}
	}
}
