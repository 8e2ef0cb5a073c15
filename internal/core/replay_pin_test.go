package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"testing"

	"airshed/internal/machine"
	"airshed/internal/vm"
)

// replayPinNodes is the node-count axis of the replay pin grid: the
// paper's powers of two, the ragged counts where an extent stops dividing
// evenly, and p past the 5 layers and near the 128 of Figure 2.
var replayPinNodes = []int{1, 2, 3, 4, 5, 7, 8, 16, 31, 64, 100, 128}

// replayPins are sha256 fingerprints (replayFingerprint) of the 24-hour
// LA trace replayed on each paper machine, node count and mode, recorded
// from the pairwise redistribution planner. A pricing change that is not
// meant to alter results must leave every entry as it is.
var replayPins = map[string]string{
	"t3e/1/data-parallel":            "22cb851677bdb118e4696605a1c6e44d5456684b1a811fc184d670f36ded3258",
	"t3e/2/data-parallel":            "1c93537a4c374fda49de0844f7be9c61a51c0af4cd5d78a03b6838e0c491742e",
	"t3e/3/data-parallel":            "49c683486cc7dfcd5d464b2561b89d4020d595ae23645afb2bcfc6646b391213",
	"t3e/3/task+data-parallel":       "0976c70c049c368a66dc8e064c02f5feaaed09865daaff5b597620c36b9931eb",
	"t3e/4/data-parallel":            "f1c0ba78de52529631087baef59af81cd52f0704aec60b123f06eeedd225a889",
	"t3e/4/task+data-parallel":       "b0c94aecfd48a7107f4452f11f15359adfaf70fd78069c88d9890430b2914765",
	"t3e/5/data-parallel":            "f6d069f344776ee13f5762908e56744140f2d4923726d722f3bf16dfebc8448f",
	"t3e/5/task+data-parallel":       "1e0836d410c5d19038f837563dc8e5e92cd54ce02d36881d62b3cc43a3774e55",
	"t3e/7/data-parallel":            "30fc04f5aae0fb4a21460995cba4c152f27138f1f1576325bab9a135e12c1fdb",
	"t3e/7/task+data-parallel":       "f9f7e74b198e58b0fe455d1b201bdcca92d52f8174333f284f887eaf98bcf39d",
	"t3e/8/data-parallel":            "2f70998e1a231a1f3b5c7f86a43ecb79ba813e7f17a8ddcc4194c9dd485f775f",
	"t3e/8/task+data-parallel":       "564e7c314493e1dfc211657020dae49f01b1539c1552d613fa6e4207bc93ce5e",
	"t3e/16/data-parallel":           "8a0584a289ca432326f646d2bc7feb5db4e313c7dcb0ee39f2dcb36310fec507",
	"t3e/16/task+data-parallel":      "c681717692a165fbb1bc0a9aafe008f7931d8833edc85d896a60fd6ed02a2978",
	"t3e/31/data-parallel":           "49ff959395c8e15bee1b48f1269b9de906b3711abed643381c63d5475ceef4f2",
	"t3e/31/task+data-parallel":      "5b76939e667cc558119e37a779551763671fa2b4bb51e147c93c3e03b8e514f5",
	"t3e/64/data-parallel":           "085366d00cb44fe3a72a10bd81cdfd90085df85f47bfb5f804793aeafa5cd170",
	"t3e/64/task+data-parallel":      "7c9992f6bd0879fdc09c3dd39e2384dea7de532c26f4c8c7835c0b9b4efa364f",
	"t3e/100/data-parallel":          "a6ab8211c40394c202d6ad91943850712cf9e7d4ee423472bbede5003b2a93e3",
	"t3e/100/task+data-parallel":     "c6ff23b3b821eae53b898a24561bbd4b1593aa2e9c358b56ac9b17ec3d363d74",
	"t3e/128/data-parallel":          "bb40cbcf51732d46b6d1701ff0b34eef3412127811caf93e3f96a5887156821b",
	"t3e/128/task+data-parallel":     "193b12c258bcb8b1711cba6660960a3e3479598a15e5b4db6b4b8bde3ea861ed",
	"t3d/1/data-parallel":            "7b788cb1263c86e84386eeaaf5b5196fb03fb9dd42b83365855bd0de74eab3c1",
	"t3d/2/data-parallel":            "26cf5c39f3f949ac48592e90d8f85673cdaababfe45a77ddc54f86436f873dfb",
	"t3d/3/data-parallel":            "f120dd4bd9831ecc436efbef011c3b50b8fb4b8cc4b7fe0d25ec0fda5e844b1d",
	"t3d/3/task+data-parallel":       "6e8a3eb630ddc1e6e15173159ecebc00cad6a3f07b1d47fe17dd873ab9ad0159",
	"t3d/4/data-parallel":            "78c99fcad96a476d751cd2aacbc57335fd3c8572a3130cbc91ca4f165edbf167",
	"t3d/4/task+data-parallel":       "30748e398ad91ac6e34db3b6702225a2572af6165fc6e9092fa256de2b748ff7",
	"t3d/5/data-parallel":            "728e1428ed7f7cad743060136e28645e9dbe2201b1f83ba9eb1dfcf4adbe0c7c",
	"t3d/5/task+data-parallel":       "99e81a353b201145c53fe544c66c10af432356b95255df312783e1749a778eeb",
	"t3d/7/data-parallel":            "cd8206f9514411b71af48d8c09ca7fd4b1b3a0c18968406ff2673889ea32ea6b",
	"t3d/7/task+data-parallel":       "62ec1d288bb3413d990a2f59d03df4f2cc3688ce9fac1d6f6436fd21c18c5e11",
	"t3d/8/data-parallel":            "93398f9a531bbed61dd1acdf94f8c23aa0747cbb6b6c6c19027389a85eb5f431",
	"t3d/8/task+data-parallel":       "6f999ff02dd04f2b7505ec054f81d5053320267e33f7f12137cb8d3a58d9b8d2",
	"t3d/16/data-parallel":           "5acce6b8056cb0246563774e117d5a805c2ffb974f895aea98a2f01e4d84cd73",
	"t3d/16/task+data-parallel":      "032f9b0ddb7b4cfcf893d99b092e8e56636a966f2706d519e5ad812a622da631",
	"t3d/31/data-parallel":           "d94d99b81d64d81db724ce4b506aeffd4beb9c3b4239db41b09f0d3edff66ae1",
	"t3d/31/task+data-parallel":      "5d157dd0b4c4c344631586e4f29ae9cfb8729f06c0613cb2f0ff83d441f01db3",
	"t3d/64/data-parallel":           "1c4c4a03719d8c61a0698d405d61249ba383566f8bd787d7ffe4ccc07e377e08",
	"t3d/64/task+data-parallel":      "4d5bdba84a7e16cc0d049b92f9be20065e8263f490c211aa02676cb0383a4cab",
	"t3d/100/data-parallel":          "93380611fd39eec501385b878674427ceb0d36f06284bad116522dc563fe2edc",
	"t3d/100/task+data-parallel":     "684ef79a4d9bb3fe0660782800fe2119bf9d9d4cf34ecc7ccf01e1f1dbbe2703",
	"t3d/128/data-parallel":          "4ac708389ca2a0e5f704e5161b6e5e5c30a8ae3eb6df83e4b5ad5b8d15d2e572",
	"t3d/128/task+data-parallel":     "9e6ba80a9ca5e1a293eecbd74080c69b72380b0d9128a37efe2b0617b56ee693",
	"paragon/1/data-parallel":        "09df7a9477a6b74497775523da3079f5f7c12b22874790a2d840e520d7141117",
	"paragon/2/data-parallel":        "9ea909abba01aa98041aa1daf6f629e20c0fce83f43b5a68d1ec23ec9f426206",
	"paragon/3/data-parallel":        "b27d366b223ae781c7133b8e2c6d612d42014bbfc264445b1b5c2a1f7f573614",
	"paragon/3/task+data-parallel":   "95f092f4bf8ec47a12dc76665fb7a087be3a445fa829d936db47cfdc0413dfd7",
	"paragon/4/data-parallel":        "1fad735f005723f5d56aa70999a3406de0d99becab766161c9ce0a0144ca8db0",
	"paragon/4/task+data-parallel":   "54b4848781e4132a4ebffd2e410573df07835ecc00aa1d8ad0678c949761efc2",
	"paragon/5/data-parallel":        "defa0140074b9d166dd7467daf4ed518b1f614f440349b5415a8b3495b0e246c",
	"paragon/5/task+data-parallel":   "cc48841b2da46b26e0088a118ed608382479ff628072c807e78d3db96b1abd74",
	"paragon/7/data-parallel":        "12c24f273afb4b0fce09243ee1191bb065c2f5645c64ffa21cb9f9437d765ad9",
	"paragon/7/task+data-parallel":   "260ecbe2e0ad3581d6a5fabff8d8c399b1fbf2bc5ca92efdd2787f22474c3dfa",
	"paragon/8/data-parallel":        "03803d1261fd31789b2ed3f190665eb15d2a47783682223d247bceae495c3964",
	"paragon/8/task+data-parallel":   "d45e6b7a77d63bde485a1523deffd0be7f5801dfb6d6c1d6b6943ffa5aa4b4b9",
	"paragon/16/data-parallel":       "b20b37b69aff073dd56f1820bc1f70f3a91fcb6983fc43f1955f0736c16073d2",
	"paragon/16/task+data-parallel":  "dd31cc98b1f0f0e61dc5e665cf242f09a8dc045bdcc5f442ad9ec2b561d82930",
	"paragon/31/data-parallel":       "27858657fa82c3e430209123ddfba05bf7057e8470e47cfe9e263d25d7b86a73",
	"paragon/31/task+data-parallel":  "92c2b46baa3fd3d88d930e379b56793fa62831874031f5291bd4da7554e7f108",
	"paragon/64/data-parallel":       "0e305e32dd0ba0c63ede74c951c8c952453259c49081a7afdfec39d411d637b2",
	"paragon/64/task+data-parallel":  "4fa81b57784e0e1844cfec958330876775936c54fe2575f62e688ebf0eb7d57e",
	"paragon/100/data-parallel":      "548284d029ce93861723e714809655f81714a3a3aea73f45f125ea198b4d6c12",
	"paragon/100/task+data-parallel": "85607fb6b5b634a05b90acb43b81190948d8aa067096b75f1a6bb2acd098e8d6",
	"paragon/128/data-parallel":      "eba6143b3097a4c494f0baa547a626b43fa9e3aee4b22daee8670519289dba13",
	"paragon/128/task+data-parallel": "aac89fb897631bdd08a4e241d4a4a13096139ce6ddf26e5d1cea041ce0db205b",
}

// replayFingerprint hashes every priced quantity of a replay except the
// pipeline timeline: the ledger, the per-kind communication seconds and
// counts in RedistKinds order, each node's utilization and the stage
// bounds in key order. Floats enter as their bits, so equal hashes mean
// bit-identical results.
func replayFingerprint(res *ReplayResult) string {
	h := sha256.New()
	var b [8]byte
	u64 := func(x uint64) {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	f64 := func(x float64) { u64(math.Float64bits(x)) }
	str := func(s string) {
		u64(uint64(len(s)))
		h.Write([]byte(s))
	}
	str(res.Ledger.Machine)
	u64(uint64(res.Ledger.Nodes))
	f64(res.Ledger.Total)
	for _, c := range vm.Categories() {
		f64(res.Ledger.ByCat[c])
	}
	for _, k := range RedistKinds() {
		f64(res.CommSeconds[k])
		u64(uint64(res.RedistCounts[k]))
	}
	u64(uint64(len(res.NodeUtilization)))
	for _, u := range res.NodeUtilization {
		f64(u)
	}
	stages := make([]string, 0, len(res.StageBound))
	for s := range res.StageBound {
		stages = append(stages, s)
	}
	sort.Strings(stages)
	for _, s := range stages {
		str(s)
		f64(res.StageBound[s])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestReplayPinnedLA24 prices the committed 24-hour LA trace over the
// machine x node count x mode grid and requires every fingerprint to
// match its pin.
func TestReplayPinnedLA24(t *testing.T) {
	tr, err := LoadTrace(filepath.Join("..", "..", "testdata", "traces", "LA24h.trace"))
	if err != nil {
		t.Fatal(err)
	}
	missing := ""
	points := 0
	for _, name := range []string{"t3e", "t3d", "paragon"} {
		prof, err := machine.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range replayPinNodes {
			for _, mode := range []Mode{DataParallel, TaskParallel} {
				if mode == TaskParallel && p < 3 {
					continue
				}
				key := fmt.Sprintf("%s/%d/%v", name, p, mode)
				res, err := Replay(tr, prof, p, mode)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				points++
				got := replayFingerprint(res)
				want, ok := replayPins[key]
				if !ok {
					missing += fmt.Sprintf("\t%q: %q,\n", key, got)
					continue
				}
				if got != want {
					t.Errorf("%s: fingerprint %s, pinned %s", key, got, want)
				}
			}
		}
	}
	if missing != "" {
		t.Errorf("unpinned grid points; their current fingerprints:\n%s", missing)
	}
	if points != len(replayPins) {
		t.Errorf("grid has %d points, %d pins", points, len(replayPins))
	}
}
