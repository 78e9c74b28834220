// S3: lock-free snapshot reads vs the previous shared-lock design, under
// a hot writer. sopr.DB's Query performs no mutex acquisition
// at all — it loads the published MVCC snapshot with one atomic pointer
// read — while the pre-snapshot design took a sync.RWMutex shared for
// every query and exclusive for every write. The difference only shows
// under write pressure: RLock readers stall whenever the writer holds the
// exclusive lock (and the writer in turn waits out reader batches), so
// shared-lock read throughput collapses toward the writer's duty cycle,
// while snapshot readers never wait on anything and scale with cores.
// This experiment pits both against the same workload: the in-bench
// rwDB wrapper reproduces the old locking verbatim, and a plain shared
// sopr.DB provides the snapshot path.
package main

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sopr"
)

// s3TotalOps is the number of read operations measured per S3 table row
// (the -s3ops flag; CI smoke runs shrink it).
var s3TotalOps = 2000

// rwDB reproduces the repository's previous concurrency design: one
// sync.RWMutex over the whole database, shared for queries, exclusive for
// writes. It exists only as the S3 baseline.
type rwDB struct {
	mu sync.RWMutex
	db *sopr.DB
}

func (s *rwDB) Exec(src string) (*sopr.Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.db.Exec(src)
}

func (s *rwDB) Query(src string) (*sopr.Rows, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.db.Query(src)
}

// s3reader abstracts the two read paths so s3run drives them identically.
type s3reader interface {
	Exec(src string) (*sopr.Result, error)
	Query(src string) (*sopr.Rows, error)
}

func s3() {
	header("S3", "snapshot reads vs shared-lock reads under a hot writer")
	fmt.Printf("%-9s %-12s %12s %12s %12s\n", "readers", "path", "reads/sec", "µs/read", "writes/sec")
	for _, nr := range []int{1, 2, 4, 8} {
		for _, path := range []string{"rwlock", "snapshot"} {
			var r s3reader
			if path == "rwlock" {
				r = &rwDB{db: s3seed()}
			} else {
				r = s3seed()
			}
			elapsed, writes := s3run(r, nr, s3TotalOps)
			total := (s3TotalOps / nr) * nr
			fmt.Printf("%-9d %-12s %12.0f %12.1f %12.0f\n", nr, path,
				float64(total)/elapsed.Seconds(),
				float64(elapsed.Microseconds())/float64(total),
				float64(writes)/elapsed.Seconds())
		}
	}
	fmt.Printf("(GOMAXPROCS=%d; same workload as S2 with the writer always on. The rwlock\n", runtime.GOMAXPROCS(0))
	fmt.Println(" rows reproduce the pre-MVCC design: readers block behind the writer's")
	fmt.Println(" exclusive sections. Snapshot rows acquire nothing — one atomic load —")
	fmt.Println(" so reads scale with cores and the writer never stalls a reader.)")
}

// s3seed builds the S2 dataset: 4k resident rows, audit-mirror rules, so
// each read is a filtered COUNT heap scan and each write fires rules.
func s3seed() *sopr.DB {
	db := sopr.Open()
	db.MustExec(`create table t (id int, v int); create table audit (id int, v int)`)
	db.MustExec(b1Rule)
	var ins strings.Builder
	const rows = 4000
	for i := 0; i < rows; i++ {
		if i%500 == 0 {
			if i > 0 {
				db.MustExec(ins.String())
			}
			ins.Reset()
			ins.WriteString("insert into t values ")
		} else {
			ins.WriteString(", ")
		}
		fmt.Fprintf(&ins, "(%d, %d)", i, i%97)
	}
	db.MustExec(ins.String())
	return db
}

// s3run drives nr reader goroutines through total/nr filtered-COUNT
// queries each while one writer loops rule-firing insert+delete
// transactions, returning the readers' wall time and committed writes.
func s3run(r s3reader, nr, total int) (time.Duration, int64) {
	stop := make(chan struct{})
	var writes atomic.Int64
	var wwg sync.WaitGroup
	wwg.Add(1)
	go func() {
		defer wwg.Done()
		i := 1_000_000_000 // ids disjoint from the resident rows
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := r.Exec(fmt.Sprintf(`insert into t values (%d, %d)`, i, i%97)); err != nil {
				panic(err)
			}
			if _, err := r.Exec(fmt.Sprintf(`delete from t where id = %d`, i)); err != nil {
				panic(err)
			}
			writes.Add(2)
			i++
		}
	}()
	per := total / nr
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < nr; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for j := 0; j < per; j++ {
				rows, err := r.Query(fmt.Sprintf(`select count(*) from t where v = %d`, (g*31+j)%97))
				if err != nil {
					panic(err)
				}
				benchSink = rows
			}
		}(g)
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	elapsed := time.Since(t0)
	close(stop)
	wwg.Wait()
	return elapsed, writes.Load()
}
