// Package tpch implements a deterministic TPC-H workload substrate: a
// scaled-down dbgen producing the eight standard tables with referentially
// consistent keys, dates, and value distributions, plus the 22 benchmark
// queries in this engine's SQL dialect (correlated subqueries rewritten to
// their standard decorrelated join forms, documented per query). Fig. 8's
// experiment runs these queries through both engines.
package tpch

import (
	"fmt"

	"photon/internal/catalog"
	"photon/internal/exec"
	"photon/internal/types"
	"photon/internal/vector"
)

// rng is a splitmix64 PRNG; deterministic across runs and platforms.
type rng struct{ state uint64 }

func newRng(seed uint64) *rng { return &rng{state: seed*0x9e3779b97f4a7c15 + 1} }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// rangeInt returns a value in [lo, hi].
func (r *rng) rangeInt(lo, hi int) int { return lo + r.intn(hi-lo+1) }

// Scale factors: cardinalities follow the spec's ratios at small SF.
const (
	suppliersPerSF = 10_000
	customersPerSF = 150_000
	partsPerSF     = 200_000
	ordersPerSF    = 1_500_000
)

// Word pools (simplified dbgen text).
var (
	segments   = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
	priorities = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
	shipmodes  = []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}
	instructs  = []string{"DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"}
	types1     = []string{"STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"}
	types2     = []string{"ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"}
	types3     = []string{"TIN", "NICKEL", "BRASS", "STEEL", "COPPER"}
	cont1      = []string{"SM", "LG", "MED", "JUMBO", "WRAP"}
	cont2      = []string{"CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN", "DRUM"}
	nounPool   = []string{"packages", "requests", "accounts", "deposits", "foxes", "ideas", "theodolites", "pinto beans", "instructions", "dependencies", "excuses", "platelets", "asymptotes", "courts", "dolphins", "multipliers"}
	verbPool   = []string{"sleep", "wake", "are", "cajole", "haggle", "nag", "use", "boost", "affix", "detect", "integrate", "maintain", "nod", "was", "lose", "sublate"}
	adjPool    = []string{"furious", "sly", "careful", "blithe", "quick", "fluffy", "slow", "quiet", "ruthless", "thin", "close", "dogged", "daring", "brave", "stealthy", "permanent"}
)

// nations maps name → region key (spec's fixed 25 nations).
var nations = []struct {
	name   string
	region int
}{
	{"ALGERIA", 0}, {"ARGENTINA", 1}, {"BRAZIL", 1}, {"CANADA", 1},
	{"EGYPT", 4}, {"ETHIOPIA", 0}, {"FRANCE", 3}, {"GERMANY", 3},
	{"INDIA", 2}, {"INDONESIA", 2}, {"IRAN", 4}, {"IRAQ", 4},
	{"JAPAN", 2}, {"JORDAN", 4}, {"KENYA", 0}, {"MOROCCO", 0},
	{"MOZAMBIQUE", 0}, {"PERU", 1}, {"CHINA", 2}, {"ROMANIA", 3},
	{"SAUDI ARABIA", 4}, {"VIETNAM", 2}, {"RUSSIA", 3},
	{"UNITED KINGDOM", 3}, {"UNITED STATES", 1},
}

var regions = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}

// text produces a short pseudo-random comment.
func text(r *rng) string {
	return adjPool[r.intn(len(adjPool))] + " " + nounPool[r.intn(len(nounPool))] + " " +
		verbPool[r.intn(len(verbPool))] + " " + adjPool[r.intn(len(adjPool))] + " " +
		nounPool[r.intn(len(nounPool))]
}

// dec builds a Decimal128 with 2-digit scale from cents.
func dec(cents int64) types.Decimal128 { return types.DecimalFromInt64(cents) }

// dates: orders span 1992-01-01 .. 1998-08-02.
var (
	startDate, _ = types.ParseDate("1992-01-01")
	endDate, _   = types.ParseDate("1998-08-02")
)

// Gen generates all eight tables at the given scale factor into an
// in-memory catalog. SF 0.01 ≈ 60k lineitems (laptop benchmarks run
// SF 0.01–0.1).
type Gen struct {
	SF        float64
	BatchSize int

	// Cardinalities (derived; exposed for tests).
	NumSuppliers int
	NumCustomers int
	NumParts     int
	NumOrders    int
	NumLineitems int
}

// NewGen builds a generator.
func NewGen(sf float64) *Gen {
	g := &Gen{SF: sf, BatchSize: vector.DefaultBatchSize}
	g.NumSuppliers = max(int(sf*suppliersPerSF), 5)
	g.NumCustomers = max(int(sf*customersPerSF), 30)
	g.NumParts = max(int(sf*partsPerSF), 40)
	g.NumOrders = max(int(sf*ordersPerSF), 100)
	return g
}

// tableBuilder accumulates rows into batches. A batch's rows are pivoted
// together, so each string column's payloads land in one buffer and
// registration finds them packed.
type tableBuilder struct {
	schema *types.Schema
	size   int
	rows   [][]any
	out    []*vector.Batch
}

func newTableBuilder(schema *types.Schema, size int) *tableBuilder {
	return &tableBuilder{schema: schema, size: size}
}

func (tb *tableBuilder) add(row []any) {
	if tb.rows = append(tb.rows, row); len(tb.rows) == tb.size {
		tb.flush()
	}
}

func (tb *tableBuilder) flush() {
	if len(tb.rows) > 0 {
		tb.out = append(tb.out, exec.BuildBatches(tb.schema, tb.rows, tb.size)...)
		tb.rows = tb.rows[:0]
	}
}

func (tb *tableBuilder) finish() []*vector.Batch {
	tb.flush()
	return tb.out
}

// Generate builds the full catalog.
func (g *Gen) Generate() *catalog.Catalog {
	cat := catalog.New()
	g.genRegion(cat)
	g.genNation(cat)
	g.genSupplier(cat)
	g.genCustomer(cat)
	g.genPart(cat)
	g.genPartsupp(cat)
	g.genOrdersAndLineitem(cat)
	return cat
}

func register(cat *catalog.Catalog, name string, schema *types.Schema, batches []*vector.Batch) {
	cat.Register(&catalog.MemTable{TableName: name, Sch: schema, Batches: batches})
}

func (g *Gen) genRegion(cat *catalog.Catalog) {
	schema := types.NewSchema(
		types.Field{Name: "r_regionkey", Type: types.Int64Type},
		types.Field{Name: "r_name", Type: types.StringType},
		types.Field{Name: "r_comment", Type: types.StringType},
	)
	r := newRng(11)
	tb := newTableBuilder(schema, g.BatchSize)
	for i, name := range regions {
		tb.add([]any{int64(i), name, text(r)})
	}
	register(cat, "region", schema, tb.finish())
}

func (g *Gen) genNation(cat *catalog.Catalog) {
	schema := types.NewSchema(
		types.Field{Name: "n_nationkey", Type: types.Int64Type},
		types.Field{Name: "n_name", Type: types.StringType},
		types.Field{Name: "n_regionkey", Type: types.Int64Type},
		types.Field{Name: "n_comment", Type: types.StringType},
	)
	r := newRng(13)
	tb := newTableBuilder(schema, g.BatchSize)
	for i, n := range nations {
		tb.add([]any{int64(i), n.name, int64(n.region), text(r)})
	}
	register(cat, "nation", schema, tb.finish())
}

func (g *Gen) genSupplier(cat *catalog.Catalog) {
	schema := types.NewSchema(
		types.Field{Name: "s_suppkey", Type: types.Int64Type},
		types.Field{Name: "s_name", Type: types.StringType},
		types.Field{Name: "s_address", Type: types.StringType},
		types.Field{Name: "s_nationkey", Type: types.Int64Type},
		types.Field{Name: "s_phone", Type: types.StringType},
		types.Field{Name: "s_acctbal", Type: types.DecimalType(12, 2)},
		types.Field{Name: "s_comment", Type: types.StringType},
	)
	r := newRng(17)
	tb := newTableBuilder(schema, g.BatchSize)
	for i := 0; i < g.NumSuppliers; i++ {
		nk := r.intn(len(nations))
		comment := text(r)
		// ~1% of suppliers have complaint comments (Q16).
		if r.intn(100) == 0 {
			comment = "Customer Complaints " + comment
		}
		tb.add([]any{
			int64(i + 1),
			fmt.Sprintf("Supplier#%09d", i+1),
			text(r),
			int64(nk),
			phone(nk, r),
			dec(int64(r.rangeInt(-99999, 999999))),
			comment,
		})
	}
	register(cat, "supplier", schema, tb.finish())
}

func phone(nationKey int, r *rng) string {
	return fmt.Sprintf("%d-%03d-%03d-%04d", 10+nationKey, r.intn(900)+100, r.intn(900)+100, r.intn(9000)+1000)
}

func (g *Gen) genCustomer(cat *catalog.Catalog) {
	schema := types.NewSchema(
		types.Field{Name: "c_custkey", Type: types.Int64Type},
		types.Field{Name: "c_name", Type: types.StringType},
		types.Field{Name: "c_address", Type: types.StringType},
		types.Field{Name: "c_nationkey", Type: types.Int64Type},
		types.Field{Name: "c_phone", Type: types.StringType},
		types.Field{Name: "c_acctbal", Type: types.DecimalType(12, 2)},
		types.Field{Name: "c_mktsegment", Type: types.StringType},
		types.Field{Name: "c_comment", Type: types.StringType},
	)
	r := newRng(19)
	tb := newTableBuilder(schema, g.BatchSize)
	for i := 0; i < g.NumCustomers; i++ {
		nk := r.intn(len(nations))
		tb.add([]any{
			int64(i + 1),
			fmt.Sprintf("Customer#%09d", i+1),
			text(r),
			int64(nk),
			phone(nk, r),
			dec(int64(r.rangeInt(-99999, 999999))),
			segments[r.intn(len(segments))],
			text(r),
		})
	}
	register(cat, "customer", schema, tb.finish())
}

func (g *Gen) genPart(cat *catalog.Catalog) {
	schema := types.NewSchema(
		types.Field{Name: "p_partkey", Type: types.Int64Type},
		types.Field{Name: "p_name", Type: types.StringType},
		types.Field{Name: "p_mfgr", Type: types.StringType},
		types.Field{Name: "p_brand", Type: types.StringType},
		types.Field{Name: "p_type", Type: types.StringType},
		types.Field{Name: "p_size", Type: types.Int32Type},
		types.Field{Name: "p_container", Type: types.StringType},
		types.Field{Name: "p_retailprice", Type: types.DecimalType(12, 2)},
		types.Field{Name: "p_comment", Type: types.StringType},
	)
	r := newRng(23)
	tb := newTableBuilder(schema, g.BatchSize)
	for i := 0; i < g.NumParts; i++ {
		mfgr := r.intn(5) + 1
		brand := mfgr*10 + r.intn(5) + 1
		ptype := types1[r.intn(len(types1))] + " " + types2[r.intn(len(types2))] + " " + types3[r.intn(len(types3))]
		tb.add([]any{
			int64(i + 1),
			adjPool[r.intn(len(adjPool))] + " " + adjPool[r.intn(len(adjPool))] + " " + nounPool[r.intn(len(nounPool))],
			fmt.Sprintf("Manufacturer#%d", mfgr),
			fmt.Sprintf("Brand#%d", brand),
			ptype,
			int32(r.rangeInt(1, 50)),
			cont1[r.intn(len(cont1))] + " " + cont2[r.intn(len(cont2))],
			dec(int64(90000 + (i%200)*100 + r.intn(1000))),
			text(r),
		})
	}
	register(cat, "part", schema, tb.finish())
}

func (g *Gen) genPartsupp(cat *catalog.Catalog) {
	schema := types.NewSchema(
		types.Field{Name: "ps_partkey", Type: types.Int64Type},
		types.Field{Name: "ps_suppkey", Type: types.Int64Type},
		types.Field{Name: "ps_availqty", Type: types.Int32Type},
		types.Field{Name: "ps_supplycost", Type: types.DecimalType(12, 2)},
		types.Field{Name: "ps_comment", Type: types.StringType},
	)
	r := newRng(29)
	tb := newTableBuilder(schema, g.BatchSize)
	for p := 1; p <= g.NumParts; p++ {
		for k := 0; k < 4; k++ {
			s := (p+k*(g.NumSuppliers/4+1))%g.NumSuppliers + 1
			tb.add([]any{
				int64(p),
				int64(s),
				int32(r.rangeInt(1, 9999)),
				dec(int64(r.rangeInt(100, 100000))),
				text(r),
			})
		}
	}
	register(cat, "partsupp", schema, tb.finish())
}

func (g *Gen) genOrdersAndLineitem(cat *catalog.Catalog) {
	oSchema := types.NewSchema(
		types.Field{Name: "o_orderkey", Type: types.Int64Type},
		types.Field{Name: "o_custkey", Type: types.Int64Type},
		types.Field{Name: "o_orderstatus", Type: types.StringType},
		types.Field{Name: "o_totalprice", Type: types.DecimalType(12, 2)},
		types.Field{Name: "o_orderdate", Type: types.DateType},
		types.Field{Name: "o_orderpriority", Type: types.StringType},
		types.Field{Name: "o_clerk", Type: types.StringType},
		types.Field{Name: "o_shippriority", Type: types.Int32Type},
		types.Field{Name: "o_comment", Type: types.StringType},
	)
	lSchema := types.NewSchema(
		types.Field{Name: "l_orderkey", Type: types.Int64Type},
		types.Field{Name: "l_partkey", Type: types.Int64Type},
		types.Field{Name: "l_suppkey", Type: types.Int64Type},
		types.Field{Name: "l_linenumber", Type: types.Int32Type},
		types.Field{Name: "l_quantity", Type: types.DecimalType(12, 2)},
		types.Field{Name: "l_extendedprice", Type: types.DecimalType(12, 2)},
		types.Field{Name: "l_discount", Type: types.DecimalType(12, 2)},
		types.Field{Name: "l_tax", Type: types.DecimalType(12, 2)},
		types.Field{Name: "l_returnflag", Type: types.StringType},
		types.Field{Name: "l_linestatus", Type: types.StringType},
		types.Field{Name: "l_shipdate", Type: types.DateType},
		types.Field{Name: "l_commitdate", Type: types.DateType},
		types.Field{Name: "l_receiptdate", Type: types.DateType},
		types.Field{Name: "l_shipinstruct", Type: types.StringType},
		types.Field{Name: "l_shipmode", Type: types.StringType},
		types.Field{Name: "l_comment", Type: types.StringType},
	)
	r := newRng(31)
	ob := newTableBuilder(oSchema, g.BatchSize)
	lb := newTableBuilder(lSchema, g.BatchSize)
	cutoff, _ := types.ParseDate("1995-06-17") // spec's currentdate for status
	lineCount := 0
	for o := 1; o <= g.NumOrders; o++ {
		orderDate := startDate + int32(r.intn(int(endDate-startDate)-121))
		custkey := int64(r.intn(g.NumCustomers) + 1)
		nLines := r.rangeInt(1, 7)
		var total int64
		allF, allO := true, true
		type lineTmp struct {
			part, supp            int64
			qty, price, disc, tax int64
			ship, commit, receipt int32
			flag, status          string
		}
		lines := make([]lineTmp, nLines)
		for li := 0; li < nLines; li++ {
			part := int64(r.intn(g.NumParts) + 1)
			supp := (part+int64(r.intn(4))*int64(g.NumSuppliers/4+1))%int64(g.NumSuppliers) + 1
			qty := int64(r.rangeInt(1, 50))
			price := qty * int64(90000+(int(part)%200)*100+r.intn(1000)) / 100
			disc := int64(r.rangeInt(0, 10))
			tax := int64(r.rangeInt(0, 8))
			ship := orderDate + int32(r.rangeInt(1, 121))
			commit := orderDate + int32(r.rangeInt(30, 90))
			receipt := ship + int32(r.rangeInt(1, 30))
			status := "F"
			if ship > cutoff {
				status = "O"
				allF = false
			} else {
				allO = false
			}
			flag := "N"
			if receipt <= cutoff {
				if r.intn(2) == 0 {
					flag = "R"
				} else {
					flag = "A"
				}
			}
			total += price * (100 - disc) / 100 * (100 + tax) / 100
			lines[li] = lineTmp{part, supp, qty * 100, price, disc, tax, ship, commit, receipt, flag, status}
		}
		status := "P"
		if allF {
			status = "F"
		} else if allO {
			status = "O"
		}
		ob.add([]any{
			int64(o), custkey, status, dec(total), orderDate,
			priorities[r.intn(len(priorities))],
			fmt.Sprintf("Clerk#%09d", r.intn(1000)+1),
			int32(0),
			orderComment(r),
		})
		for li, l := range lines {
			lb.add([]any{
				int64(o), l.part, l.supp, int32(li + 1),
				dec(l.qty), dec(l.price), dec(l.disc), dec(l.tax),
				l.flag, l.status, l.ship, l.commit, l.receipt,
				instructs[r.intn(len(instructs))],
				shipmodes[r.intn(len(shipmodes))],
				text(r),
			})
			lineCount++
		}
	}
	g.NumLineitems = lineCount
	register(cat, "orders", oSchema, ob.finish())
	register(cat, "lineitem", lSchema, lb.finish())
}

// orderComment sometimes embeds the Q13 "special requests" pattern.
func orderComment(r *rng) string {
	c := text(r)
	if r.intn(100) < 2 {
		c = "special " + c + " requests"
	}
	return c
}
