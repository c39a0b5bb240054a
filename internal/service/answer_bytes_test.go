package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
)

// repeatProblems lists n copies of problem as a JSON array body.
func repeatProblems(key, problem string, n int) string {
	return `{"` + key + `":[` + strings.TrimSuffix(strings.Repeat(problem+",", n), ",") + `]}`
}

// syncAnswerCases are requests to the synchronous endpoints in every form
// each accepts: successes, validation failures, runtime failures and
// request-level refusals.
var syncAnswerCases = []struct{ name, path, body string }{
	{"lowerbound/inline/ok", "/v1/lowerbound", `{"n1":9600,"n2":2400,"n3":600,"p":512}`},
	{"lowerbound/inline/case1", "/v1/lowerbound", `{"n1":100000,"n2":10,"n3":10,"p":8}`},
	{"lowerbound/inline/bad-dims", "/v1/lowerbound", `{"n1":0,"n2":5,"n3":5,"p":4}`},
	{"lowerbound/inline/bad-p", "/v1/lowerbound", `{"n1":5,"n2":5,"n3":5,"p":0}`},
	{"lowerbound/inline/dims-overflow", "/v1/lowerbound", `{"n1":9007199254740993,"n2":2,"n3":2,"p":4}`},
	{"lowerbound/inline/malformed", "/v1/lowerbound", `{"n1":`},
	{"lowerbound/inline/empty-problems", "/v1/lowerbound", `{"problems":[],"batch":[]}`},
	{"lowerbound/batch/ok", "/v1/lowerbound", `{"batch":[{"n1":100,"n2":100,"n3":100,"p":8},{"n1":9600,"n2":2400,"n3":600,"p":512}]}`},
	{"lowerbound/batch/fail", "/v1/lowerbound", `{"batch":[{"n1":5,"n2":5,"n3":5,"p":4},{"n1":-1,"n2":5,"n3":5,"p":4},{"n1":5,"n2":5,"n3":5,"p":0}]}`},
	{"lowerbound/batch/oversize", "/v1/lowerbound", repeatProblems("batch", `{"n1":5,"n2":5,"n3":5,"p":4}`, 1025)},
	{"lowerbound/envelope/ok", "/v1/lowerbound", `{"problems":[{"n1":9600,"n2":2400,"n3":600,"p":512},{"n1":2000,"n2":2000,"n3":2000,"p":64}]}`},
	{"lowerbound/envelope/partial", "/v1/lowerbound", `{"problems":[{"n1":9600,"n2":2400,"n3":600,"p":512},{"n1":0,"n2":5,"n3":5,"p":4},{"n1":100,"n2":100,"n3":100,"p":0}],"batch":[{"n1":1,"n2":1,"n3":1,"p":1}]}`},
	{"lowerbound/envelope/all-fail", "/v1/lowerbound", `{"problems":[{"n1":0,"n2":5,"n3":5,"p":4}]}`},
	{"lowerbound/envelope/oversize", "/v1/lowerbound", repeatProblems("problems", `{"n1":5,"n2":5,"n3":5,"p":4}`, 1025)},

	{"predict/inline/ok", "/v1/predict", `{"n1":9600,"n2":2400,"n3":600,"p":512,"alpha":1e-6,"beta":1e-9,"gamma":1e-11}`},
	{"predict/inline/grid", "/v1/predict", `{"n1":64,"n2":64,"n3":64,"p":8,"beta":1,"grid":{"p1":2,"p2":2,"p3":2}}`},
	{"predict/inline/grid-mismatch", "/v1/predict", `{"n1":64,"n2":64,"n3":64,"p":8,"beta":1,"grid":{"p1":2,"p2":2,"p3":3}}`},
	{"predict/inline/grid-nonpositive", "/v1/predict", `{"n1":64,"n2":64,"n3":64,"p":8,"beta":1,"grid":{"p1":0,"p2":2,"p3":4}}`},
	{"predict/inline/torus", "/v1/predict", `{"n1":64,"n2":64,"n3":64,"p":64,"alpha":2,"beta":1,"gamma":0.0625,"topology":{"spec":"torus=4x4x4"}}`},
	{"predict/inline/twolevel-rr", "/v1/predict", `{"n1":512,"n2":512,"n3":512,"p":64,"alpha":2,"beta":1,"topology":{"spec":"twolevel=8","place":"roundrobin"}}`},
	{"predict/inline/bad-topology", "/v1/predict", `{"n1":64,"n2":64,"n3":64,"p":8,"beta":1,"topology":{"spec":"hypercube=3"}}`},
	{"predict/inline/torus-overflow", "/v1/predict", `{"n1":64,"n2":64,"n3":64,"p":64,"beta":1,"topology":{"spec":"torus=64x288230376151711745"}}`},
	{"predict/inline/search-limit", "/v1/predict", `{"n1":64,"n2":64,"n3":64,"p":20000000,"beta":1}`},
	{"predict/inline/overflow", "/v1/predict", `{"n1":64,"n2":64,"n3":64,"p":8,"alpha":1e308,"beta":1e308}`},
	{"predict/inline/batch-ignored", "/v1/predict", `{"batch":[{"n1":64,"n2":64,"n3":64,"p":8,"beta":1}]}`},
	{"predict/envelope/partial", "/v1/predict", `{"problems":[` +
		`{"n1":9600,"n2":2400,"n3":600,"p":512,"alpha":1e-6,"beta":1e-9,"gamma":1e-11},` +
		`{"n1":64,"n2":64,"n3":64,"p":8,"beta":1,"grid":{"p1":2,"p2":2,"p3":3}},` +
		`{"n1":64,"n2":64,"n3":64,"p":64,"alpha":2,"beta":1,"gamma":0.0625,"topology":{"spec":"torus=4x4x4"}},` +
		`{"n1":64,"n2":64,"n3":64,"p":8,"alpha":1e308,"beta":1e308},` +
		`{"n1":64,"n2":64,"n3":64,"p":8,"beta":1,"topology":{"spec":"hypercube=3"}}]}`},
	{"predict/envelope/oversize", "/v1/predict", repeatProblems("problems", `{"n1":5,"n2":5,"n3":5,"p":4}`, 1025)},

	{"bound/inline/ok", "/v1/bound", `{"program":"A[i,k]*B[k,j] -> C[i,j] | i=9600 k=600 j=2400","p":512}`},
	{"bound/inline/exponents", "/v1/bound", `{"program":"A[i,k]*B[k,j] -> C[i,j]"}`},
	{"bound/inline/structured", "/v1/bound", `{"arrays":[{"name":"X","indices":["i"]},{"name":"Y","indices":["j"]},{"name":"F","indices":["i"]}],"output":"F","extents":{"i":4096,"j":4096},"p":64}`},
	{"bound/inline/bad-program", "/v1/bound", `{"program":"A[i]*B[i]"}`},
	{"bound/inline/no-p", "/v1/bound", `{"program":"A[i,k]*B[k,j] -> C[i,j] | i=8 k=8 j=8","p":0}`},
	{"bound/inline/p-without-extents", "/v1/bound", `{"program":"A[i,k]*B[k,j] -> C[i,j]","p":8}`},
	{"bound/inline/unused-index", "/v1/bound", `{"indices":["i","j","z"],"arrays":[{"name":"A","indices":["i"]},{"name":"B","indices":["j"]}],"extents":{"i":8,"j":8,"z":8},"p":4}`},
	{"bound/envelope/partial", "/v1/bound", `{"problems":[` +
		`{"program":"A[i,k]*B[k,j] -> C[i,j] | i=9600 k=600 j=2400","p":512},` +
		`{"program":"A[i]*B[i]"},` +
		`{"program":"A[i,k]*B[k,j] -> C[i,j]"},` +
		`{"program":"A[a1,a2,c1]*B[c1,b1] -> C[a1,a2,b1] | a1=48 a2=48 c1=48 b1=48","p":27},` +
		`{"program":"A[i,k]*B[k,j] -> C[i,j] | i=8 k=8 j=8","p":0}]}`},
	{"bound/envelope/oversize", "/v1/bound", repeatProblems("problems", `{"program":"A[i]*B[i]"}`, 1025)},

	{"grid/ok", "/v1/grid", `{"n1":9600,"n2":2400,"n3":600,"p":512,"mem":300000}`},
	{"grid/bad-dims", "/v1/grid", `{"n1":5,"n2":-2,"n3":5,"p":4}`},
}

// syncAnswerSHA256 pins SHA-256("<status>\n<body>") of every answer to
// syncAnswerCases.
var syncAnswerSHA256 = map[string]string{
	"lowerbound/inline/ok":             "b305770f02cbe759bb370aec374548420ea57a0184c909846e36d5dbbb931d76",
	"lowerbound/inline/case1":          "503c10f19a485bd34aa7f29fea2c2a70471b281800d2ad3ac39aae7f572d81f9",
	"lowerbound/inline/bad-dims":       "71bb1a74b906e5afc088e3b520d3cbcbbe6cdcc6becdb0d355f9b359e44b45ae",
	"lowerbound/inline/bad-p":          "e18e7de5a38f896915686614ee034e53eab84d2d7377f0da3ee3c891bf0a810d",
	"lowerbound/inline/dims-overflow":  "ea19ba129f00328d7d49e2d27057649e399866d5d5397df6400449f709b30f58",
	"lowerbound/inline/malformed":      "1356a9c4aa2e933c3d11f2e2a7c91758630ae05709d34f2db9cf94f8bbd4a3a1",
	"lowerbound/inline/empty-problems": "f64ad5fbd668eee86e252ac2bc41b5307c141dfb336301084b1811003102e013",
	"lowerbound/batch/ok":              "d788f8dc16db444d346959e8c33beb99809dc1583467aa007139a35c9f123c63",
	"lowerbound/batch/fail":            "106f510f9aaadfc0af5724167a930264da6c2f1f10ededad53dae409962cdc64",
	"lowerbound/batch/oversize":        "388a83bcc3ad4c7657fd0207a585870412aef206dabbedf3c51155a316f885fe",
	"lowerbound/envelope/ok":           "d61c1a02237c70a164cd03cd7ffa8ba3bdca7299eafbede0ef636ea487bf860c",
	"lowerbound/envelope/partial":      "00470cb00a7a0cf4974809655d5199ee201bcd3f14dc9fdae6c902f1c5c4e3dd",
	"lowerbound/envelope/all-fail":     "4852472637ee408111eb82d9d6346c4e8b707534c0433723baae95bcf3bfce55",
	"lowerbound/envelope/oversize":     "388a83bcc3ad4c7657fd0207a585870412aef206dabbedf3c51155a316f885fe",
	"predict/inline/ok":                "d0efb88d8071d22cf2a935f04409b9c08808964a6558efba909ff57c0679a07f",
	"predict/inline/grid":              "ea62ec5053ac807e4309e3649391d9d994ac3d38d6cf2a3d9f4b567aab4136b3",
	"predict/inline/grid-mismatch":     "c9156f646b9a76ab36a3dad1e97f6454ea25145e3dbb470287260d71bb532ed4",
	"predict/inline/grid-nonpositive":  "cf95d49a383113dfe4700e2790847e320856dce24d003441e58046e9858a6aa7",
	"predict/inline/torus":             "e534ffa3812a7fdf5b054f82479e65f3bec747ef84f11e55122037aface72105",
	"predict/inline/twolevel-rr":       "3304a8bd899d33373eba35c7e20a6719f5de178e30d186ee9363fdd7399f68bb",
	"predict/inline/bad-topology":      "634bff31a9961c000eabc47240d4caec4cd6d2605fb89c2b048cd1ab3958af0f",
	"predict/inline/torus-overflow":    "1f91cd915d282b9bcfeb6bf3efa8e411f4885101ad7eb4e627961bbdb89d28e9",
	"predict/inline/search-limit":      "d40d457c273fd71601ff701b354af2697cb68bc97acfe38ef5e7c7827e91a30c",
	"predict/inline/overflow":          "ac28afdb88f2c35fc5a131d6ccfeb39d69dc0ff253f751fda174a393666eac54",
	"predict/inline/batch-ignored":     "f64ad5fbd668eee86e252ac2bc41b5307c141dfb336301084b1811003102e013",
	"predict/envelope/partial":         "12e503953abe1f100c8756125256c77d89cb9a635646467062426adc40df4404",
	"predict/envelope/oversize":        "388a83bcc3ad4c7657fd0207a585870412aef206dabbedf3c51155a316f885fe",
	"bound/inline/ok":                  "759f969706c395aff05b48c40a515fee42269c6a8a819128df96d30cb3cf0bbe",
	"bound/inline/exponents":           "a6dfd9a4a7ceb0e3ffe7842fd06ba4485e472f5c76eb563d74a60b27ea6368fc",
	"bound/inline/structured":          "7b61af259ce3352bcae43565bfc786bdd23bb6e9fed8ad79a60206f7b5a6a28e",
	"bound/inline/bad-program":         "38e384ee797fbb49ec6bdc744b93108879f8b3c68fd9a0cd17c3bdfc8428388a",
	"bound/inline/no-p":                "971134dd81faa6c5d7d4aedfef7d0b17cf94944f9bff25507bc30cc7976a452e",
	"bound/inline/p-without-extents":   "ee8044765be4c369c1fe7e76be39ca67fd7d254905c9ff2b7585ba6a50e90cb5",
	"bound/inline/unused-index":        "4d39329db63bc0b0c45c6762ceb7da3fd6a4611978c7abe5fd95ae92a35f0cf6",
	"bound/envelope/partial":           "94891f921eb547762127c16ce7d8243502a365f15b84344b47848b021a17b7ef",
	"bound/envelope/oversize":          "388a83bcc3ad4c7657fd0207a585870412aef206dabbedf3c51155a316f885fe",
	"grid/ok":                          "4be40bb949c2fd2cde0f17a1efe90308f77e3359722781a3171fd5b351039687",
	"grid/bad-dims":                    "b531e87dc3e932ee48a8adb29d9fd550cfc99b9b8e0390afa3a13a744fe7cec2",
}

// simAnswerCases are /v1/simulate requests in every form, each submitted
// to a fresh server so its job id is always the first.
var simAnswerCases = []struct{ name, body string }{
	{"inline/ok", `{"n1":16,"n2":16,"n3":16,"p":4,"verify":true}`},
	{"inline/trace", `{"n1":16,"n2":16,"n3":16,"p":4,"trace":true}`},
	{"inline/torus", `{"n1":16,"n2":16,"n3":16,"p":8,"alpha":2,"beta":1,"topology":{"spec":"torus=2x2x2"}}`},
	{"inline/cannon-p8", `{"alg":"Cannon","n1":16,"n2":16,"n3":16,"p":8}`},
	{"inline/bad-dims", `{"n1":0,"n2":16,"n3":16,"p":4}`},
	{"inline/unknown-alg", `{"alg":"Strassen9000","n1":8,"n2":8,"n3":8,"p":4}`},
	{"inline/unknown-engine", `{"n1":16,"n2":16,"n3":16,"p":4,"engine":"fibers"}`},
	{"inline/grid-mismatch", `{"n1":16,"n2":16,"n3":16,"p":8,"grid":{"p1":-1,"p2":2,"p3":4}}`},
	{"batch/ok-trace", `{"batch":[{"n1":16,"n2":16,"n3":16,"p":4},{"n1":16,"n2":16,"n3":16,"p":8}],"trace":true}`},
	{"batch/cannon-p8", `{"alg":"Cannon","batch":[{"n1":16,"n2":16,"n3":16,"p":4},{"n1":16,"n2":16,"n3":16,"p":8}]}`},
	{"batch/invalid", `{"batch":[{"n1":16,"n2":16,"n3":16,"p":4},{"n1":-1,"n2":16,"n3":16,"p":4},{"n1":16,"n2":16,"n3":16,"p":2000000}]}`},
	{"batch/topology-mismatch", `{"batch":[{"n1":16,"n2":16,"n3":16,"p":8},{"n1":16,"n2":16,"n3":16,"p":4}],"topology":{"spec":"torus=2x2x2"}}`},
	{"batch/oversize", repeatProblems("batch", `{"n1":4,"n2":4,"n3":4,"p":1}`, 1025)},
	{"envelope/ok-trace", `{"problems":[{"n1":16,"n2":16,"n3":16,"p":4},{"n1":16,"n2":16,"n3":16,"p":8}],"trace":true}`},
	{"envelope/single-trace", `{"problems":[{"n1":16,"n2":16,"n3":16,"p":4}],"trace":true}`},
	{"envelope/cannon-p8", `{"alg":"Cannon","problems":[{"n1":16,"n2":16,"n3":16,"p":4},{"n1":16,"n2":16,"n3":16,"p":8}]}`},
	{"envelope/all-cannon-fail", `{"alg":"Cannon","problems":[{"n1":16,"n2":16,"n3":16,"p":8}]}`},
	{"envelope/invalid", `{"problems":[{"n1":16,"n2":16,"n3":16,"p":4},{"n1":0,"n2":16,"n3":16,"p":4},{"n1":16,"n2":16,"n3":16,"p":2000000}]}`},
}

// simAnswerSHA256 pins, per simAnswerCases entry, SHA-256("<status>\n<body>")
// of the submit answer ("/submit") and, for an accepted job, SHA-256 of its
// final status, result, error and artifact catalog ("/job": artifact names,
// with the content digest of result.json and results.csv).
var simAnswerSHA256 = map[string]string{
	"simulate/inline/ok/submit":                "e8cc92b0d59475fec474a4a1c3c1a05ebdad18f52babe3f361c77140946858e4",
	"simulate/inline/ok/job":                   "66f4d8162feb84a848a8e102f21b6c8ed211a4517b2070dabc316e3caec79d45",
	"simulate/inline/trace/submit":             "e8cc92b0d59475fec474a4a1c3c1a05ebdad18f52babe3f361c77140946858e4",
	"simulate/inline/trace/job":                "022728354071f59e72b7c0884e4aa6a7e2c264f07bfae08ef50a8a38807762ba",
	"simulate/inline/torus/submit":             "e8cc92b0d59475fec474a4a1c3c1a05ebdad18f52babe3f361c77140946858e4",
	"simulate/inline/torus/job":                "4ae64b611d725be104ff363294153e556255d805673f09252d8c5f6d89093d3b",
	"simulate/inline/cannon-p8/submit":         "e8cc92b0d59475fec474a4a1c3c1a05ebdad18f52babe3f361c77140946858e4",
	"simulate/inline/cannon-p8/job":            "24864a9a9ef08c6710138138bcb3c6b70874e8fec2b721676a81394e1d9ceab5",
	"simulate/inline/bad-dims/submit":          "7b7123a2bae0313068ef32fd2d94250a4842611adecd8c3b49593e3d6c0d223c",
	"simulate/inline/unknown-alg/submit":       "47df98695b03accd709e1683a03f00a58da79e5d8854462c62e34a90139faef7",
	"simulate/inline/unknown-engine/submit":    "55405170ef2b803bd5f533ff02b2d8139323ff071f1ec0078407f92812e85dd4",
	"simulate/inline/grid-mismatch/submit":     "f81d6d38fc1c4c33c3dbc59928e3894fe41e36387d3e1d3a943fe26d148bcfa5",
	"simulate/batch/ok-trace/submit":           "e8cc92b0d59475fec474a4a1c3c1a05ebdad18f52babe3f361c77140946858e4",
	"simulate/batch/ok-trace/job":              "afbd729bfd986e57ed392b6317ee54e8cd447e4e1997f18774fded95185dd7ec",
	"simulate/batch/cannon-p8/submit":          "e8cc92b0d59475fec474a4a1c3c1a05ebdad18f52babe3f361c77140946858e4",
	"simulate/batch/cannon-p8/job":             "24864a9a9ef08c6710138138bcb3c6b70874e8fec2b721676a81394e1d9ceab5",
	"simulate/batch/invalid/submit":            "81b80a16c79f9c7517b952d6e0d74dba37208430e719dea276b555dccb264973",
	"simulate/batch/topology-mismatch/submit":  "977be765bc1ab0be28a5e60068c21822cc986f1e86dd248a7110f0fefd58f298",
	"simulate/batch/oversize/submit":           "388a83bcc3ad4c7657fd0207a585870412aef206dabbedf3c51155a316f885fe",
	"simulate/envelope/ok-trace/submit":        "e8cc92b0d59475fec474a4a1c3c1a05ebdad18f52babe3f361c77140946858e4",
	"simulate/envelope/ok-trace/job":           "e10e75f647bd791c456fa149cc5ff8c43847214129f1157e6db4e89270b9fec7",
	"simulate/envelope/single-trace/submit":    "e8cc92b0d59475fec474a4a1c3c1a05ebdad18f52babe3f361c77140946858e4",
	"simulate/envelope/single-trace/job":       "fcdfce76c7962ab13c2f531e3e63017c2548e97d0a11b8d11988a62192a97de0",
	"simulate/envelope/cannon-p8/submit":       "e8cc92b0d59475fec474a4a1c3c1a05ebdad18f52babe3f361c77140946858e4",
	"simulate/envelope/cannon-p8/job":          "cb1a40e47be53991e900a43dff0cf7a9d1e5f009bf0712eda7d322ac3847a4da",
	"simulate/envelope/all-cannon-fail/submit": "e8cc92b0d59475fec474a4a1c3c1a05ebdad18f52babe3f361c77140946858e4",
	"simulate/envelope/all-cannon-fail/job":    "a41b0f00f7732cddc880e69c9d22f539694f546701617bded32565941124cd11",
	"simulate/envelope/invalid/submit":         "dd5c961109aebc850eb1fc626e915e41aacbf6754de215c992a5e2e01260d91a",
}

func answerDigest(status int, body []byte) string {
	sum := sha256.Sum256(fmt.Appendf(nil, "%d\n%s", status, body))
	return hex.EncodeToString(sum[:])
}

// TestAnswerBytes holds the lowerbound, predict, bound, grid and simulate
// answers, status included, to their recorded digests.
func TestAnswerBytes(t *testing.T) {
	_, ts := newTestServer(t)
	for _, c := range syncAnswerCases {
		status, raw := post(t, ts, c.path, c.body)
		if got := answerDigest(status, raw); got != syncAnswerSHA256[c.name] {
			t.Errorf("%s: digest %s, recorded %s (%d %.300s)", c.name, got, syncAnswerSHA256[c.name], status, raw)
		}
	}
	for _, c := range simAnswerCases {
		_, ts := newArtifactServer(t, Config{})
		status, raw := post(t, ts, "/v1/simulate", c.body)
		key := "simulate/" + c.name
		if got := answerDigest(status, raw); got != simAnswerSHA256[key+"/submit"] {
			t.Errorf("%s/submit: digest %s, recorded %s (%d %.300s)", key, got, simAnswerSHA256[key+"/submit"], status, raw)
		}
		if status != http.StatusAccepted {
			continue
		}
		id := decode[JobResponse](t, raw).ID
		waitJob(t, ts, id)
		_, raw = get(t, ts, "/v1/jobs/"+id)
		var job struct {
			Status    string          `json:"status"`
			Result    json.RawMessage `json:"result"`
			Error     string          `json:"error"`
			Artifacts []ArtifactJSON  `json:"artifacts"`
		}
		if err := json.Unmarshal(raw, &job); err != nil {
			t.Fatal(err)
		}
		view := fmt.Sprintf("%s\n%s\n%s\n", job.Status, job.Result, job.Error)
		for _, a := range job.Artifacts {
			view += a.Name
			if !strings.HasPrefix(a.Name, "trace") {
				view += " " + a.SHA256
			}
			view += "\n"
		}
		if got := answerDigest(0, []byte(view)); got != simAnswerSHA256[key+"/job"] {
			t.Errorf("%s/job: digest %s, recorded %s (%.500s)", key, got, simAnswerSHA256[key+"/job"], view)
		}
	}
}
