package ckptstore

// Reed–Solomon erasure coding over GF(2^8) for checkpoint frames. With
// parameters (k, m) a packed object frame is cut into k data shards and m
// parity shards; any k of the k+m shards reconstruct the frame
// byte-identically, so the object survives m simultaneous holder losses
// while storing only (k+m)/k times the frame instead of Degree full
// copies. The coding matrix is a systematic Vandermonde matrix: the first
// k shards are the plain frame split into stripes (a recovering owner with
// all data shards pays no decode work), and the m parity rows are the
// Vandermonde remainder normalized so any k rows stay invertible.

import "fmt"

// ECParams configures erasure-coded checkpoint copies. The zero value
// means erasure coding is off (full-frame replication).
type ECParams struct {
	// K is the number of data shards a frame is split into.
	K int
	// M is the number of parity shards: the copy set survives any M
	// simultaneous shard losses.
	M int
}

// Enabled reports whether erasure coding is configured.
func (p ECParams) Enabled() bool { return p.K > 0 && p.M > 0 }

// Shards returns the total shard count k+m.
func (p ECParams) Shards() int { return p.K + p.M }

func (p ECParams) String() string {
	if !p.Enabled() {
		return "off"
	}
	return fmt.Sprintf("%d,%d", p.K, p.M)
}

// ParseEC parses the `ftbench -ec k,m` flag syntax. Empty or "off" means
// no erasure coding.
func ParseEC(s string) (ECParams, error) {
	if s == "" || s == "off" {
		return ECParams{}, nil
	}
	var p ECParams
	if n, err := fmt.Sscanf(s, "%d,%d", &p.K, &p.M); n != 2 || err != nil {
		return ECParams{}, fmt.Errorf("bad erasure-coding spec %q (want k,m)", s)
	}
	if err := p.validate(); err != nil {
		return ECParams{}, err
	}
	return p, nil
}

// FeasibleFor reports whether the code can be used on n ranks: valid
// parameters, and room for its k+m shards on distinct non-owner ranks. An
// infeasible code is dropped and full replication applies.
func (p ECParams) FeasibleFor(n int) bool {
	return p.Enabled() && p.validate() == nil && p.Shards() <= n-1
}

// WantCopies is the number of copies a fully covered object has on n ranks:
// min(degree, n-1) full frames, or k+m shards under a feasible code.
func WantCopies(n, degree int, ec ECParams) int {
	if ec.FeasibleFor(n) {
		return ec.Shards()
	}
	return min(degree, n-1)
}

// Survivable is the number of distinct ranks that may be down at once with
// recovery still guaranteed: min(degree, n-1) under full replication, m
// under a feasible (k,m) code — and never less than the one failure the
// paper's protocol is built for.
func Survivable(n, degree int, ec ECParams) int {
	if ec.FeasibleFor(n) {
		return ec.M
	}
	return max(min(degree, n-1), 1)
}

func (p ECParams) validate() error {
	if p.K < 1 || p.M < 1 {
		return fmt.Errorf("erasure coding needs k >= 1 and m >= 1, got (%d,%d)", p.K, p.M)
	}
	if p.Shards() > 255 {
		return fmt.Errorf("erasure coding supports at most 255 shards, got k+m = %d", p.Shards())
	}
	return nil
}

// GF(2^8) arithmetic with the usual 0x11d reduction polynomial. exp is
// doubled so gfMul can index exp[log a + log b] without a mod.
var (
	gfExp [512]byte
	gfLog [256]byte
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		gfExp[i] = byte(x)
		gfLog[x] = byte(i)
		x <<= 1
		if x >= 256 {
			x ^= 0x11d
		}
	}
	for i := 255; i < 512; i++ {
		gfExp[i] = gfExp[i-255]
	}
}

func gfMul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return gfExp[int(gfLog[a])+int(gfLog[b])]
}

func gfInv(a byte) byte {
	if a == 0 {
		panic("ckptstore: inverse of 0 in GF(256)")
	}
	return gfExp[255-int(gfLog[a])]
}

// codingMatrix returns the (k+m) x k systematic coding matrix: a
// Vandermonde matrix with distinct evaluation points right-multiplied by
// the inverse of its top k x k block, so rows 0..k-1 are the identity and
// every k-row subset remains invertible.
func codingMatrix(k, total int) [][]byte {
	vand := make([][]byte, total)
	for i := range vand {
		vand[i] = make([]byte, k)
		x := gfExp[i%255] // distinct points alpha^i, i < 255
		v := byte(1)
		for j := 0; j < k; j++ {
			vand[i][j] = v
			v = gfMul(v, x)
		}
	}
	topInv, err := invertMatrix(vand[:k])
	if err != nil {
		panic("ckptstore: Vandermonde top block not invertible: " + err.Error())
	}
	out := make([][]byte, total)
	for i := range out {
		out[i] = make([]byte, k)
		for j := 0; j < k; j++ {
			var acc byte
			for t := 0; t < k; t++ {
				acc ^= gfMul(vand[i][t], topInv[t][j])
			}
			out[i][j] = acc
		}
	}
	return out
}

// invertMatrix inverts a square GF(256) matrix by Gauss–Jordan
// elimination, or reports that it is singular.
func invertMatrix(m [][]byte) ([][]byte, error) {
	k := len(m)
	a := make([][]byte, k) // augmented [m | I]
	for i := range a {
		a[i] = make([]byte, 2*k)
		copy(a[i], m[i])
		a[i][k+i] = 1
	}
	for col := 0; col < k; col++ {
		pivot := -1
		for r := col; r < k; r++ {
			if a[r][col] != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return nil, fmt.Errorf("singular at column %d", col)
		}
		a[col], a[pivot] = a[pivot], a[col]
		inv := gfInv(a[col][col])
		for j := 0; j < 2*k; j++ {
			a[col][j] = gfMul(a[col][j], inv)
		}
		for r := 0; r < k; r++ {
			if r == col || a[r][col] == 0 {
				continue
			}
			f := a[r][col]
			for j := 0; j < 2*k; j++ {
				a[r][j] ^= gfMul(f, a[col][j])
			}
		}
	}
	out := make([][]byte, k)
	for i := range out {
		out[i] = a[i][k:]
	}
	return out, nil
}

// Encode splits frame into k data shards plus m parity shards. All shards
// have length ceil(len(frame)/k); data shards are zero-padded. Shard i of
// the returned slice corresponds to coding-matrix row i (rows 0..k-1 are
// the systematic data rows).
func Encode(p ECParams, frame []byte) ([][]byte, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	shardLen := (len(frame) + p.K - 1) / p.K
	shards := make([][]byte, p.Shards())
	for i := range shards {
		shards[i] = make([]byte, shardLen)
	}
	for i := 0; i < p.K; i++ {
		lo := i * shardLen
		if lo >= len(frame) {
			break
		}
		hi := lo + shardLen
		if hi > len(frame) {
			hi = len(frame)
		}
		copy(shards[i], frame[lo:hi])
	}
	mat := codingMatrix(p.K, p.Shards())
	for i := p.K; i < p.Shards(); i++ {
		row := mat[i]
		out := shards[i]
		for j := 0; j < p.K; j++ {
			c := row[j]
			if c == 0 {
				continue
			}
			data := shards[j]
			for pos := range out {
				out[pos] ^= gfMul(c, data[pos])
			}
		}
	}
	return shards, nil
}

// Decode reconstructs the original frame of length frameLen from any k
// present shards. shards must have length k+m with missing entries nil;
// present entries must all share one length. Fewer than k present shards
// is an error — the frame is unrecoverable and the caller must find out.
func Decode(p ECParams, shards [][]byte, frameLen int) ([]byte, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	if len(shards) != p.Shards() {
		return nil, fmt.Errorf("decode: got %d shard slots, want %d", len(shards), p.Shards())
	}
	present := make([]int, 0, p.K)
	shardLen := -1
	for i, s := range shards {
		if s == nil {
			continue
		}
		if shardLen < 0 {
			shardLen = len(s)
		} else if len(s) != shardLen {
			return nil, fmt.Errorf("decode: shard %d length %d != %d", i, len(s), shardLen)
		}
		present = append(present, i)
	}
	if len(present) < p.K {
		return nil, fmt.Errorf("decode: only %d of %d shards present, need %d — frame unrecoverable",
			len(present), p.Shards(), p.K)
	}
	if shardLen*p.K < frameLen {
		return nil, fmt.Errorf("decode: shard length %d too short for frame length %d", shardLen, frameLen)
	}
	present = present[:p.K]

	// Fast path: all k data shards present — the code is systematic.
	data := make([][]byte, p.K)
	systematic := true
	for i := 0; i < p.K; i++ {
		if shards[i] == nil {
			systematic = false
			break
		}
		data[i] = shards[i]
	}
	if !systematic {
		mat := codingMatrix(p.K, p.Shards())
		sub := make([][]byte, p.K)
		for i, row := range present {
			sub[i] = mat[row]
		}
		inv, err := invertMatrix(sub)
		if err != nil {
			return nil, fmt.Errorf("decode: %v", err)
		}
		for i := 0; i < p.K; i++ {
			out := make([]byte, shardLen)
			for j, row := range present {
				c := inv[i][j]
				if c == 0 {
					continue
				}
				src := shards[row]
				for pos := range out {
					out[pos] ^= gfMul(c, src[pos])
				}
			}
			data[i] = out
		}
	}
	frame := make([]byte, 0, frameLen)
	for i := 0; i < p.K && len(frame) < frameLen; i++ {
		need := frameLen - len(frame)
		if need > shardLen {
			need = shardLen
		}
		frame = append(frame, data[i][:need]...)
	}
	return frame, nil
}
