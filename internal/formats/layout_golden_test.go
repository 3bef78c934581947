package formats

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"slices"
	"testing"

	"morphstore/internal/columns"
)

// goldenValues is a self-contained generator (no math/rand, so the digests
// below cannot drift with the standard library): runs, outliers of every
// magnitude and small values, the mix that exercises varying block widths,
// RLE run merges and the modular delta coding.
func goldenValues(n int, seed uint64) []uint64 {
	next := func() uint64 { // splitmix64
		seed += 0x9E3779B97F4A7C15
		z := seed
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
	vals := make([]uint64, n)
	for i := 0; i < n; {
		switch next() % 4 {
		case 0: // run
			v := next() % 64
			for l := 1 + next()%300; l > 0 && i < n; l-- {
				vals[i] = v
				i++
			}
		case 1: // outlier
			vals[i] = next() >> (next() % 40)
			i++
		default: // small value
			vals[i] = next() % 900
			i++
		}
	}
	return vals
}

// layoutDigest hashes everything a column's physical layout consists of: the
// descriptor, the three extents and every word of the buffer.
func layoutDigest(col *columns.Column) string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(col.Desc().Kind))
	put(uint64(col.Desc().Bits))
	put(uint64(col.N()))
	put(uint64(col.MainElems()))
	put(uint64(len(col.MainWords())))
	for _, w := range col.Words() {
		put(w)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenSections compresses the sections of vals cut at the given offsets
// each on its own and concatenates them.
func goldenSections(desc columns.FormatDesc, vals []uint64, cuts []int) (*columns.Column, error) {
	var parts []*columns.Column
	for i := 1; i < len(cuts); i++ {
		p, err := Compress(vals[cuts[i-1]:cuts[i]], desc)
		if err != nil {
			return nil, err
		}
		parts = append(parts, p)
	}
	return ConcatCompressed(desc, parts)
}

// TestLayoutGolden pins the encoded bytes of every format across commits.
// The digests were generated at the commit preceding the blocked-codec
// unification (PR 13, eb291ed) from Compress; every other way of producing
// the column — the streaming Writer fed in ragged chunks, and independently
// compressed parts stitched by ConcatCompressed over aligned and misaligned
// seams, the parallel stitch's path — must hash to the same value, as it did
// there. A digest changes only when the physical layout changes. Every case
// runs on both kernel paths.
func TestLayoutGolden(t *testing.T) {
	descs := append(AllDescs(), columns.StaticBPDesc(40))
	lengths := []int{0, 1, 511, 512, 513, 64<<10 + 7}
	chunks := []int{1, 700, 63, 2048, 513, 64, 4099}
	// Both kernel paths (package bitutil) must produce, and decode, the
	// golden bytes.
	eachKernelPath(func(kernels string) {
		for _, desc := range descs {
			for _, seed := range []uint64{1, 2} {
				for _, n := range lengths {
					key := fmt.Sprintf("%v/seed=%d/n=%d", desc, seed, n)
					vals := goldenValues(n, seed)
					if desc.Kind == columns.StaticBP && desc.Bits > 0 {
						for i := range vals {
							vals[i] &= 1<<desc.Bits - 1
						}
					}
					want, ok := layoutGolden[key]
					if !ok {
						t.Errorf("no golden digest for %q", key)
						continue
					}
					check := func(path string, col *columns.Column, err error) {
						t.Helper()
						if err != nil {
							t.Errorf("%s/%s/%s: %v", kernels, key, path, err)
						} else if got := layoutDigest(col); got != want {
							t.Errorf("%s/%s/%s: layout digest %s, want %s", kernels, key, path, got, want)
						}
					}

					col, err := Compress(vals, desc)
					check("compress", col, err)
					if err == nil {
						if dec, err := Decompress(col); err != nil || !slices.Equal(dec, vals) {
							t.Errorf("%s/%s: decompressed values differ (%v)", kernels, key, err)
						}
					}

					w, err := NewWriter(desc, 0)
					if err != nil {
						t.Fatalf("%s/%s: %v", kernels, key, err)
					}
					for off, i := 0, 0; off < n; i++ {
						c := min(chunks[i%len(chunks)], n-off)
						if err := w.Write(vals[off : off+c]); err != nil {
							t.Fatalf("%s/%s/writer: %v", kernels, key, err)
						}
						off += c
					}
					col, err = w.Close()
					check("writer", col, err)

					third := n / 3
					aligned := []int{0, third &^ (BlockLen - 1), 2 * third &^ (BlockLen - 1), n}
					misaligned := []int{0, min(third|1, n), min(2*third|1, n), n}
					col, err = goldenSections(desc, vals, aligned)
					check("independent-aligned", col, err)
					col, err = goldenSections(desc, vals, misaligned)
					check("independent-misaligned", col, err)
				}
			}
		}
	})
}

// layoutGolden maps "format/seed/n" to the SHA-256 layout digest.
var layoutGolden = map[string]string{
	"uncompr/seed=1/n=0":           "2c34ce1df23b838c5abf2a7f6437cca3d3067ed509ff25f11df6b11b582b51eb",
	"uncompr/seed=1/n=1":           "c0b39f543d4fd0f83079cb9af8dad3f5ec0a7249cca0105a44651a2c170ffe4c",
	"uncompr/seed=1/n=511":         "44b99539062dbea0ec5b4267ad6c08fa45ae3ee1d955d31cb9e63a164f24c097",
	"uncompr/seed=1/n=512":         "a896478dbebcfc798336609d19d5bed68e293f70ebb99d84287ef4c0a1bce501",
	"uncompr/seed=1/n=513":         "33dd5e02cb47232cc1e641acc75a68c33f00518cf1dce086c39e5b04bc044dad",
	"uncompr/seed=1/n=65543":       "6ea3cf2f78778491ae9fffd7346ddd6131c5ccb1d2f63549ea98672bb4459589",
	"uncompr/seed=2/n=0":           "2c34ce1df23b838c5abf2a7f6437cca3d3067ed509ff25f11df6b11b582b51eb",
	"uncompr/seed=2/n=1":           "58d01dbc9e572b556aa29c8b049846006705099d3f69102b9c86b5b5340c8187",
	"uncompr/seed=2/n=511":         "36de56902b668534ad1543ca8b2dd5f87d2352461fb5fae816d5167e52ab458b",
	"uncompr/seed=2/n=512":         "6da7c516bba3573cca52273649d8ce3749c27b9e9e011836e4fd3e5bc85c059f",
	"uncompr/seed=2/n=513":         "f5baa24f1a98ab0b670a9b5f5a02283d4ce9db192ab968f9b77e637068be1a9d",
	"uncompr/seed=2/n=65543":       "964d05354d6da410d9dc8d04f1f78b441d799855245fd31f94669a3b47b2bc1a",
	"static_bp/seed=1/n=0":         "b68f593141969cfeddf2011667ccdca92d2d22b414194bdf4ccbaa2833c85be2",
	"static_bp/seed=1/n=1":         "cba10f68268e70153ef8fa1c8a8640bb00d326e47299035ccc4bfad805406180",
	"static_bp/seed=1/n=511":       "382b90c35dad9e4bf5c5789f87723fa6e5ee6d53b389192f4f1493225d465700",
	"static_bp/seed=1/n=512":       "c2ded3b0f7ee82d05717efabfb6c9da6a634e83eea43b3d705188ca791653831",
	"static_bp/seed=1/n=513":       "20232f0c7bd9f202da9276fe30cc393aa087da951291d558046d8b5dec3f4180",
	"static_bp/seed=1/n=65543":     "5f85ed77bc8725ace3770c84a042e3c83c8009ba27254a03cf2665a6055db8b5",
	"static_bp/seed=2/n=0":         "b68f593141969cfeddf2011667ccdca92d2d22b414194bdf4ccbaa2833c85be2",
	"static_bp/seed=2/n=1":         "2ce5a5d91ea9c141487ce4d8fecc257088d13c41894a7fe5241194115ec5f270",
	"static_bp/seed=2/n=511":       "61b084d55df8deb6bd8a0f809f43035f71096e24d684cbfdf3e7091978be9051",
	"static_bp/seed=2/n=512":       "d14e615998b9e77014c3b3fa8bc33eaeb0eb36e94e37633e88a7d2d13c1b1aa7",
	"static_bp/seed=2/n=513":       "144bb8f39622a9ba60b317aee2ae24ff27f63952a11b915bee9e8d244cb199fa",
	"static_bp/seed=2/n=65543":     "4f6d80b74a2dae485cbdd825ea31fa63800ff3623c481b41f7e81b76ee0fac7b",
	"dyn_bp/seed=1/n=0":            "74d8b89f49a16dd0a338f1dc90fe470f3137d7df12cf0b76c82b0b5f2fa9028b",
	"dyn_bp/seed=1/n=1":            "50677e713bff2c3c91c48f7ad5719a1edb4276e0e76226030ca3255d464a02fd",
	"dyn_bp/seed=1/n=511":          "f8dcb6bbd69cd048c02e36e09f2cfd4cae6748107c2017a0be07d79116f71ce2",
	"dyn_bp/seed=1/n=512":          "7f0ac4de9fcf718686f2a13550e923a290264fbc24be487e1a89becbc25452a5",
	"dyn_bp/seed=1/n=513":          "a648a010b965b39b7d7028358a085d25c8b12dd2db60a3da0d984ab32863d827",
	"dyn_bp/seed=1/n=65543":        "31eff8035d5fbb259ad7a5a41b5745a0d7c38d33a4c687d12e30823b6706a82c",
	"dyn_bp/seed=2/n=0":            "74d8b89f49a16dd0a338f1dc90fe470f3137d7df12cf0b76c82b0b5f2fa9028b",
	"dyn_bp/seed=2/n=1":            "bb9cf250b3da9f86dccf63b0b90d29d43d3020e37e4ed3497027ae434c03a880",
	"dyn_bp/seed=2/n=511":          "bb27f371e02bd5adf5cb3629749bf9519d0c7efa0b55141d27c587f7cc9569ab",
	"dyn_bp/seed=2/n=512":          "f590301174d777d10a3eaf0e1e09521abab1ed3579393791cfbfe01bd8241934",
	"dyn_bp/seed=2/n=513":          "96872fd64cc5eda42808cd01a8204ed93ac3a4f12cb2aa2ded3b6f014526fccf",
	"dyn_bp/seed=2/n=65543":        "3675288eb076c032fe4610ae547a11a27c0e5bf106ab1fb721b86b3d53777996",
	"delta+bp/seed=1/n=0":          "2bf9ef7e4013e6074f514bbbd6e8f740f888f86723529c296c1c8e16725810b3",
	"delta+bp/seed=1/n=1":          "d746c332627b54b062a78cdb0189d5475ef4c0b17bfa052ae03d116a5bc24d3c",
	"delta+bp/seed=1/n=511":        "bbe787332dccb0cbcee5efdab51efff82279b9674d36008bd81245147b3a10a4",
	"delta+bp/seed=1/n=512":        "74e3eba48512a32c0e6a788a6db835ee205f9b57c08c28c5d624987de87b77f3",
	"delta+bp/seed=1/n=513":        "edc3140b7720e9762c8333d793d5a4de90463fa37f806a25bc026aa08f6f1213",
	"delta+bp/seed=1/n=65543":      "0224c393191f416644393480177a2892921d370e59763084a161f73f4b95aade",
	"delta+bp/seed=2/n=0":          "2bf9ef7e4013e6074f514bbbd6e8f740f888f86723529c296c1c8e16725810b3",
	"delta+bp/seed=2/n=1":          "75e5482bb01f62cca9f6b4e19215e53b13fad26f8169acde9cef92797e1a8e03",
	"delta+bp/seed=2/n=511":        "d94ad478ba62bfeb3e27ddd3a9d78bee31f7c230323dc56525ec111b3775e527",
	"delta+bp/seed=2/n=512":        "3fefd3d48cda7ad69691912539b2b74321918b3c31df83c745cd01ad7924ded2",
	"delta+bp/seed=2/n=513":        "c640b15a05b8983811e0f8ce6762f83c4806bae110913aaf4076314473717938",
	"delta+bp/seed=2/n=65543":      "5c859b82d16a5656023e7d2ae8dc61ceb73cab2ad291e6d4a7889aff6b6fffad",
	"for+bp/seed=1/n=0":            "63ec4e51dc28c12e3e6f85f1111d3fcb8574ddadc6d35e59b899b9f4a9baa490",
	"for+bp/seed=1/n=1":            "a9afa147fb7dd441f7f11dca7455db6ffb3ae8546dfdcc2d0938369876931535",
	"for+bp/seed=1/n=511":          "b0a5327ebaaf95da8d7f4553c74b4bdf0d36463f56c09318567f748dd0ca397c",
	"for+bp/seed=1/n=512":          "1b2cda801ce7e81da8f0d53995be4b3e424056b2c71a5d93bdb2ab65b362fd24",
	"for+bp/seed=1/n=513":          "4be949263d29a7c1fa8ef95ebd6624b0edb2b36d3e3a962efca86b2914d7f16d",
	"for+bp/seed=1/n=65543":        "235acdba3e4e82756eb65fbaeb3dad0168f0b9b02eb1e24847ce196744535c51",
	"for+bp/seed=2/n=0":            "63ec4e51dc28c12e3e6f85f1111d3fcb8574ddadc6d35e59b899b9f4a9baa490",
	"for+bp/seed=2/n=1":            "cfcbe5a898fcd0383bd62b3cdd0a2ad5bc919a667668bad15bcdbfa28a992f3c",
	"for+bp/seed=2/n=511":          "32211431fdd64c9c159463428724030a29366680c7daa7d7d4a0d27f2403a3bb",
	"for+bp/seed=2/n=512":          "3dd9d2ca332096ce4eaf2f37304670d0e3d7f5c49a96edcfa575905b0a629da6",
	"for+bp/seed=2/n=513":          "c8a9b9c7cb6b6a60d059d453cd8cd8e9e9f104690bd70f78592181e95d35c688",
	"for+bp/seed=2/n=65543":        "6d67e53a59ba3d327acf0e7c752ab98700ad8f83b7af255a3316b2824f98d0af",
	"rle/seed=1/n=0":               "5a7c8bfe4dd12f4eb15014d8fccaffddf06bdf66da063da12d2ec5f19d85781c",
	"rle/seed=1/n=1":               "1798f983b26138113f5c5bfd3ffc71ff79884e37857510b2b22930eae6b92ee7",
	"rle/seed=1/n=511":             "60b0440948b1df32fd565828e3df6b9ced13542335d32b482932482f0009a844",
	"rle/seed=1/n=512":             "0fbf72afd849d9c2ee3a1a56c45990a0e8f3e795ebfad36de8f23a793ba86e79",
	"rle/seed=1/n=513":             "a2a69b16eed58f042258eadc348d44698bcb2f8aa021a9afc8f37e81c62f2ea5",
	"rle/seed=1/n=65543":           "ce491608c5033baca18e0ac5b3d9dd5122e7f487a767717a4b6697743e6b02da",
	"rle/seed=2/n=0":               "5a7c8bfe4dd12f4eb15014d8fccaffddf06bdf66da063da12d2ec5f19d85781c",
	"rle/seed=2/n=1":               "fa028b51a1f6dba8ecc76638df37ecdb160ff73491b65767ee4a92a6879c1f4f",
	"rle/seed=2/n=511":             "9670fe4c0a43e2ad53d2420fc25d6c66ae696a87d5a9f145dff037906d0b696c",
	"rle/seed=2/n=512":             "472bbeec6130ff5e15962d797d70226390a1a23ca0be225b2be756ffa8c1a9f5",
	"rle/seed=2/n=513":             "18358996917d5fc52ad429ab0193746f3e4be6972416935a813ddb8c9f83e728",
	"rle/seed=2/n=65543":           "ffccfbc1a2319248e4dadcaeefb12d29ca3b4b8a5adc3ddfefd96f981f2a40b3",
	"static_bp(40)/seed=1/n=0":     "31e7727e9a7d2ef7e7de341a94881568d8afdb7418e01279a4831a666943f1cc",
	"static_bp(40)/seed=1/n=1":     "33992ce0d451e8beabf6f445c2ab61d5a856f00b23e97b1647e28ea922278a14",
	"static_bp(40)/seed=1/n=511":   "da77dc049c92a774b3f7bc7df8e19179dac0372714b72de7baec1a39828111f7",
	"static_bp(40)/seed=1/n=512":   "9c59dc189203d388d402d7413fc9e968608e8cb69b4de9962107f1001a99581c",
	"static_bp(40)/seed=1/n=513":   "c1e73e4739dbcd2a4edb75af89ce379993ab95020041faa8e814655c41287d70",
	"static_bp(40)/seed=1/n=65543": "f2fdee87a97a4e9c0dfd1898902c545b6c16abe0a542167b489012cee611fa69",
	"static_bp(40)/seed=2/n=0":     "31e7727e9a7d2ef7e7de341a94881568d8afdb7418e01279a4831a666943f1cc",
	"static_bp(40)/seed=2/n=1":     "ae062f8b96a3d4a34d842eb9480564a33368a3a8488c7713133fa86b22cb0020",
	"static_bp(40)/seed=2/n=511":   "b1f099f49515fba360e2b7db76ac6ea16cc84056cb87bc59e620ca7d20d9782b",
	"static_bp(40)/seed=2/n=512":   "fa4e540c422a1876d5f4b9a6e5d760a4e5c04c67ea76d7147898c27336689ab2",
	"static_bp(40)/seed=2/n=513":   "b6e934b167242f2c427a83e692ca936dcdd488f0a8e0a8425fe18737719b67cc",
	"static_bp(40)/seed=2/n=65543": "bfc887dcb006e8dc30dc08b9739fb078f3dae8a755bbc2d261c651ecbba58524",
}
