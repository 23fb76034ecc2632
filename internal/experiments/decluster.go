package experiments

import (
	"fmt"

	"draid"
	"draid/internal/sim"
)

// Decluster is the declustered-placement rebuild experiment: a width-4
// RAID-5 volume holding a constant 64 stripes of data lives on clusters of
// 6, 12, and 18 drives, once with the classic fixed layout (the volume
// welded to a contiguous 4-drive window) and once with seeded parity
// declustering spread over every drive. One drive fails and is rebuilt;
// each point reports the rebuild rate (MB of relocated chunk data per
// second of virtual time) and the rebuild duration. Declustered rebuild is
// many-to-many — the failed drive holds only ~stripes*W/D chunks and the
// reconstruction fans out over all survivors — so its time shrinks as the
// cluster grows, while the fixed layout cannot use drives outside its
// window and stays flat.
func Decluster(o Options) Figure {
	o = o.withDefaults()
	clusters := []int{6, 12, 18}
	if o.Quick {
		clusters = []int{6, 18}
	}
	layouts := []string{"fixed", "declustered"}

	grid := parMap(o.parallel(), len(layouts)*len(clusters), func(idx int) Point {
		declustered := idx >= len(clusters)
		return declusterPoint(o, clusters[idx%len(clusters)], declustered)
	})

	fig := Figure{
		ID:     "decluster",
		Title:  "Declustered placement: rebuild rate vs cluster size (width-4 RAID-5, 64 stripes, one drive failed)",
		XLabel: "cluster drives",
		Notes: []string{
			"BW is relocated chunk MB per second of rebuild; Lat is the rebuild duration in us",
			"declustered rebuild is many-to-many: time shrinks ~1/drives as the cluster grows",
			"fixed volumes are welded to their 4-drive window: extra drives cannot help",
		},
	}
	for li := range layouts {
		s := Series{System: layouts[li]}
		for ci := range clusters {
			s.Points = append(s.Points, grid[li*len(clusters)+ci])
		}
		fig.Series = append(fig.Series, s)
	}
	return fig
}

// declusterPoint builds a D-drive pool carrying one width-4 volume (fixed
// window or declustered over all D drives), fills it, fails one drive the
// volume occupies, rebuilds, and measures the rebuild from the member
// drives' write counters: every byte written during the rebuild is a
// relocated or reconstructed chunk.
func declusterPoint(o Options, drives int, declustered bool) Point {
	const width, stripes = 4, 64
	chunk := int64(64 << 10)
	extent := stripes * chunk // fixed: one chunk per member per stripe
	if declustered {
		// Rows pack spr = (D-1)/W stripes each; keep stripes constant so the
		// protected data volume is identical at every cluster size.
		spr := (drives - 1) / width
		extent = int64((stripes+spr-1)/spr) * chunk
	}
	p, err := draid.NewPool(draid.PoolConfig{
		Drives: drives, DriveCapacity: extent, Seed: o.Seed,
	})
	if err != nil {
		panic(err)
	}
	arr, err := p.OpenVolume(draid.VolumeConfig{
		Name: "vol", Drives: width, ChunkSize: chunk, Declustered: declustered,
	})
	if err != nil {
		panic(err)
	}
	if err := arr.WriteSync(0, patternBytes(o.Seed, int(arr.Size()))); err != nil {
		panic(fmt.Sprintf("decluster: fill: %v", err))
	}

	driveWrites := func() int64 {
		var total int64
		for _, d := range p.Cluster().Drives {
			total += d.Stats().WriteBytes
		}
		return total
	}
	const victim = 1 // inside the fixed window and always populated
	before := driveWrites()
	start := arr.Now()
	arr.FailDrive(victim)
	if err := arr.RebuildDrive(victim); err != nil {
		panic(fmt.Sprintf("decluster: rebuild d=%d declustered=%v: %v", drives, declustered, err))
	}
	elapsed := sim.Duration(arr.Now() - start)
	moved := driveWrites() - before

	pt := Point{
		X:     float64(drives),
		Label: fmt.Sprintf("%d", drives),
		Lat:   float64(elapsed) / 1e3, // us
	}
	if secs := sim.Seconds(elapsed); secs > 0 {
		pt.BW = float64(moved) / 1e6 / secs
	}
	return pt
}

// patternBytes is a cheap deterministic fill (the rebuild moves bytes; their
// values only need to exist).
func patternBytes(seed int64, n int) []byte {
	out := make([]byte, n)
	x := uint64(seed)*0x9e3779b97f4a7c15 + 1
	for i := range out {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		out[i] = byte(x)
	}
	return out
}

// RealtimeDecluster is the realtime counterpart: the same constant-data
// rebuild at the sweep's endpoints against the realtime backend, timed on
// the wall clock. The byte accounting (chunks relocated) transfers exactly;
// the durations are hardware-dependent.
func RealtimeDecluster(o Options, ro draid.RealtimeOptions) (Figure, error) {
	o = o.withDefaults()
	const width, stripes = 4, 16
	chunk := int64(16 << 10)
	var fig Figure
	for _, declustered := range []bool{false, true} {
		name := "fixed"
		if declustered {
			name = "declustered"
		}
		s := Series{System: name}
		for _, drives := range []int{6, 18} {
			extent := stripes * chunk
			cfg := draid.Config{
				Backend: draid.BackendRealtime, Realtime: ro,
				Drives: width, ChunkSize: chunk, Seed: o.Seed,
			}
			if declustered {
				spr := (drives - 1) / width
				extent = int64((stripes+spr-1)/spr) * chunk
				cfg.Declustered = true
				cfg.ClusterDrives = drives
			}
			cfg.DriveCapacity = extent
			arr, err := draid.New(cfg)
			if err != nil {
				return Figure{}, err
			}
			if err := arr.WriteSync(0, patternBytes(o.Seed, int(arr.Size()))); err != nil {
				return Figure{}, err
			}
			driveWrites := func() int64 {
				var total int64
				for _, d := range arr.Cluster().Drives {
					total += d.Stats().WriteBytes
				}
				return total
			}
			before := driveWrites()
			start := arr.Now()
			arr.FailDrive(1)
			if err := arr.RebuildDrive(1); err != nil {
				return Figure{}, err
			}
			elapsed := sim.Duration(arr.Now() - start)
			moved := driveWrites() - before
			arr.Close()
			pt := Point{X: float64(drives), Label: fmt.Sprintf("%d", drives),
				Lat: float64(elapsed) / 1e3}
			if secs := sim.Seconds(elapsed); secs > 0 {
				pt.BW = float64(moved) / 1e6 / secs
			}
			s.Points = append(s.Points, pt)
		}
		fig.Series = append(fig.Series, s)
	}
	fig.ID = "decluster"
	fig.Title = "Declustered placement: rebuild vs cluster size (width-4 RAID-5, realtime backend)"
	fig.XLabel = "cluster drives"
	fig.Notes = []string{"BW is relocated chunk MB per wall-clock second of rebuild; Lat is the rebuild duration in us"}
	return fig, nil
}
