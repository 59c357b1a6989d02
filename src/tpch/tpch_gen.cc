#include <cmath>
#include <utility>

#include "tpch/tpch.h"
#include "util/str.h"

namespace recycledb::tpch {

namespace {

const char* kRegions[] = {"AFRICA", "AMERICA", "ASIA", "EUROPE",
                          "MIDDLE EAST"};

struct NationDef {
  const char* name;
  int region;
};
const NationDef kNations[] = {
    {"ALGERIA", 0},    {"ARGENTINA", 1}, {"BRAZIL", 1},  {"CANADA", 1},
    {"EGYPT", 4},      {"ETHIOPIA", 0},  {"FRANCE", 3},  {"GERMANY", 3},
    {"INDIA", 2},      {"INDONESIA", 2}, {"IRAN", 4},    {"IRAQ", 4},
    {"JAPAN", 2},      {"JORDAN", 4},    {"KENYA", 0},   {"MOROCCO", 0},
    {"MOZAMBIQUE", 0}, {"PERU", 1},      {"CHINA", 2},   {"ROMANIA", 3},
    {"SAUDI ARABIA", 4}, {"VIETNAM", 2}, {"RUSSIA", 3},  {"UNITED KINGDOM", 3},
    {"UNITED STATES", 1}};

const char* kSegments[] = {"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY",
                           "HOUSEHOLD"};
const char* kPriorities[] = {"1-URGENT", "2-HIGH", "3-MEDIUM",
                             "4-NOT SPECIFIED", "5-LOW"};
const char* kShipModes[] = {"REG AIR", "AIR", "RAIL", "SHIP",
                            "TRUCK",   "MAIL", "FOB"};
const char* kShipInstruct[] = {"DELIVER IN PERSON", "COLLECT COD", "NONE",
                               "TAKE BACK RETURN"};
const char* kTypes1[] = {"STANDARD", "SMALL", "MEDIUM",
                         "LARGE",    "ECONOMY", "PROMO"};
const char* kTypes2[] = {"ANODIZED", "BURNISHED", "PLATED", "POLISHED",
                         "BRUSHED"};
const char* kTypes3[] = {"TIN", "NICKEL", "BRASS", "STEEL", "COPPER"};
const char* kContainers1[] = {"SM", "LG", "MED", "JUMBO", "WRAP"};
const char* kContainers2[] = {"CASE", "BOX", "BAG", "JAR",
                              "PKG",  "PACK", "CAN", "DRUM"};
const char* kColors[] = {"almond",   "antique", "aquamarine", "azure",
                         "beige",    "bisque",  "black",      "blanched",
                         "blue",     "blush",   "brown",      "burlywood",
                         "burnished","chartreuse", "chiffon",  "chocolate",
                         "coral",    "cornflower", "cream",    "cyan",
                         "dark",     "deep",    "dim",        "dodger",
                         "drab",     "firebrick", "forest",   "frosted",
                         "gainsboro","ghost",   "goldenrod",  "green",
                         "grey",     "honeydew","hot",        "hotpink",
                         "indian",   "ivory",   "khaki",      "lace",
                         "lavender", "lawn",    "lemon",      "light",
                         "lime",     "linen",   "magenta",    "maroon",
                         "medium",   "metallic","midnight",   "mint",
                         "misty",    "moccasin","navajo",     "navy",
                         "olive",    "orange",  "orchid",     "pale"};
const char* kWords[] = {"carefully", "quickly",  "furiously", "slyly",
                        "blithely",  "deposits", "accounts",  "packages",
                        "theodolites", "pinto",  "beans",     "foxes",
                        "ideas",     "instructions", "platelets", "requests",
                        "asymptotes", "courts",  "dolphins",  "multipliers"};

std::string RandomComment(Rng* rng, const char* rare1, const char* rare2,
                          double rare_p) {
  std::string out;
  int n = static_cast<int>(rng->UniformRange(4, 9));
  for (int i = 0; i < n; ++i) {
    if (!out.empty()) out += ' ';
    out += kWords[rng->Uniform(sizeof(kWords) / sizeof(kWords[0]))];
  }
  if (rare1 != nullptr && rng->Bernoulli(rare_p)) {
    out += ' ';
    out += rare1;
    out += ' ';
    out += kWords[rng->Uniform(sizeof(kWords) / sizeof(kWords[0]))];
    out += ' ';
    out += rare2;
  }
  return out;
}

template <typename T>
const T& Pick(Rng* rng, const T* arr, size_t n) {
  return arr[rng->Uniform(n)];
}
#define PICK(rng, arr) Pick(rng, arr, sizeof(arr) / sizeof(arr[0]))

}  // namespace

Status LoadTpch(Catalog* cat, const TpchConfig& cfg) {
  Rng rng(cfg.seed);
  const double sf = cfg.scale_factor;
  const size_t n_supp = std::max<size_t>(10, static_cast<size_t>(10000 * sf));
  const size_t n_part = std::max<size_t>(50, static_cast<size_t>(200000 * sf));
  const size_t n_cust = std::max<size_t>(30, static_cast<size_t>(150000 * sf));
  const size_t n_ord = std::max<size_t>(100, static_cast<size_t>(1500000 * sf));

  const DateT start = DateFromYmd(1992, 1, 1);
  const DateT end = DateFromYmd(1998, 8, 2);
  const DateT cutoff = DateFromYmd(1995, 6, 17);

  // --- region / nation -------------------------------------------------------
  cat->CreateTable("region", {{"r_regionkey", TypeTag::kOid},
                              {"r_name", TypeTag::kStr}});
  {
    std::vector<Oid> keys;
    std::vector<std::string> names;
    for (size_t i = 0; i < 5; ++i) {
      keys.push_back(i);
      names.push_back(kRegions[i]);
    }
    RDB_RETURN_NOT_OK(cat->LoadColumn<Oid>("region", "r_regionkey",
                                           std::move(keys), true, true));
    RDB_RETURN_NOT_OK(
        cat->LoadColumn<std::string>("region", "r_name", std::move(names)));
  }

  cat->CreateTable("nation", {{"n_nationkey", TypeTag::kOid},
                              {"n_name", TypeTag::kStr},
                              {"n_regionkey", TypeTag::kOid}});
  {
    std::vector<Oid> keys, regs;
    std::vector<std::string> names;
    for (size_t i = 0; i < 25; ++i) {
      keys.push_back(i);
      names.push_back(kNations[i].name);
      regs.push_back(static_cast<Oid>(kNations[i].region));
    }
    RDB_RETURN_NOT_OK(cat->LoadColumn<Oid>("nation", "n_nationkey",
                                           std::move(keys), true, true));
    RDB_RETURN_NOT_OK(
        cat->LoadColumn<std::string>("nation", "n_name", std::move(names)));
    RDB_RETURN_NOT_OK(
        cat->LoadColumn<Oid>("nation", "n_regionkey", std::move(regs)));
  }

  // --- supplier --------------------------------------------------------------
  cat->CreateTable("supplier", {{"s_suppkey", TypeTag::kOid},
                                {"s_name", TypeTag::kStr},
                                {"s_nationkey", TypeTag::kOid},
                                {"s_acctbal", TypeTag::kDbl},
                                {"s_comment", TypeTag::kStr}});
  {
    std::vector<Oid> keys(n_supp), nations(n_supp);
    std::vector<std::string> names(n_supp), comments(n_supp);
    std::vector<double> bals(n_supp);
    for (size_t i = 0; i < n_supp; ++i) {
      keys[i] = i;
      names[i] = StrFormat("Supplier#%09zu", i);
      nations[i] = rng.Uniform(25);
      bals[i] = rng.UniformDouble(-999.99, 9999.99);
      comments[i] = RandomComment(&rng, "Customer", "Complaints", 0.005);
    }
    RDB_RETURN_NOT_OK(cat->LoadColumn<Oid>("supplier", "s_suppkey",
                                           std::move(keys), true, true));
    RDB_RETURN_NOT_OK(
        cat->LoadColumn<std::string>("supplier", "s_name", std::move(names)));
    RDB_RETURN_NOT_OK(
        cat->LoadColumn<Oid>("supplier", "s_nationkey", std::move(nations)));
    RDB_RETURN_NOT_OK(
        cat->LoadColumn<double>("supplier", "s_acctbal", std::move(bals)));
    RDB_RETURN_NOT_OK(cat->LoadColumn<std::string>("supplier", "s_comment",
                                                   std::move(comments)));
  }

  // --- customer --------------------------------------------------------------
  cat->CreateTable("customer", {{"c_custkey", TypeTag::kOid},
                                {"c_name", TypeTag::kStr},
                                {"c_nationkey", TypeTag::kOid},
                                {"c_acctbal", TypeTag::kDbl},
                                {"c_mktsegment", TypeTag::kStr},
                                {"c_phone_cc", TypeTag::kInt}});
  {
    std::vector<Oid> keys(n_cust), nations(n_cust);
    std::vector<std::string> names(n_cust), segs(n_cust);
    std::vector<double> bals(n_cust);
    std::vector<int32_t> ccs(n_cust);
    for (size_t i = 0; i < n_cust; ++i) {
      keys[i] = i;
      names[i] = StrFormat("Customer#%09zu", i);
      nations[i] = rng.Uniform(25);
      bals[i] = rng.UniformDouble(-999.99, 9999.99);
      segs[i] = PICK(&rng, kSegments);
      // Phone country code = nationkey + 10 (spec); Q22 filters on it.
      ccs[i] = static_cast<int32_t>(nations[i]) + 10;
    }
    RDB_RETURN_NOT_OK(cat->LoadColumn<Oid>("customer", "c_custkey",
                                           std::move(keys), true, true));
    RDB_RETURN_NOT_OK(
        cat->LoadColumn<std::string>("customer", "c_name", std::move(names)));
    RDB_RETURN_NOT_OK(
        cat->LoadColumn<Oid>("customer", "c_nationkey", std::move(nations)));
    RDB_RETURN_NOT_OK(
        cat->LoadColumn<double>("customer", "c_acctbal", std::move(bals)));
    RDB_RETURN_NOT_OK(cat->LoadColumn<std::string>("customer", "c_mktsegment",
                                                   std::move(segs)));
    RDB_RETURN_NOT_OK(
        cat->LoadColumn<int32_t>("customer", "c_phone_cc", std::move(ccs)));
  }

  // --- part ------------------------------------------------------------------
  cat->CreateTable("part", {{"p_partkey", TypeTag::kOid},
                            {"p_name", TypeTag::kStr},
                            {"p_brand", TypeTag::kStr},
                            {"p_type", TypeTag::kStr},
                            {"p_size", TypeTag::kInt},
                            {"p_container", TypeTag::kStr},
                            {"p_retailprice", TypeTag::kDbl}});
  {
    std::vector<Oid> keys(n_part);
    std::vector<std::string> names(n_part), brands(n_part), types(n_part),
        containers(n_part);
    std::vector<int32_t> sizes(n_part);
    std::vector<double> prices(n_part);
    for (size_t i = 0; i < n_part; ++i) {
      keys[i] = i;
      names[i] = std::string(PICK(&rng, kColors)) + " " + PICK(&rng, kColors);
      brands[i] = StrFormat("Brand#%d%d",
                            static_cast<int>(rng.UniformRange(1, 5)),
                            static_cast<int>(rng.UniformRange(1, 5)));
      types[i] = std::string(PICK(&rng, kTypes1)) + " " +
                 PICK(&rng, kTypes2) + " " + PICK(&rng, kTypes3);
      sizes[i] = static_cast<int32_t>(rng.UniformRange(1, 50));
      containers[i] =
          std::string(PICK(&rng, kContainers1)) + " " + PICK(&rng, kContainers2);
      prices[i] = 900 + (static_cast<double>(i % 1000)) / 10.0;
    }
    RDB_RETURN_NOT_OK(
        cat->LoadColumn<Oid>("part", "p_partkey", std::move(keys), true, true));
    RDB_RETURN_NOT_OK(
        cat->LoadColumn<std::string>("part", "p_name", std::move(names)));
    RDB_RETURN_NOT_OK(
        cat->LoadColumn<std::string>("part", "p_brand", std::move(brands)));
    RDB_RETURN_NOT_OK(
        cat->LoadColumn<std::string>("part", "p_type", std::move(types)));
    RDB_RETURN_NOT_OK(
        cat->LoadColumn<int32_t>("part", "p_size", std::move(sizes)));
    RDB_RETURN_NOT_OK(cat->LoadColumn<std::string>("part", "p_container",
                                                   std::move(containers)));
    RDB_RETURN_NOT_OK(
        cat->LoadColumn<double>("part", "p_retailprice", std::move(prices)));
  }

  // --- partsupp (4 suppliers per part) ----------------------------------------
  cat->CreateTable("partsupp", {{"ps_partkey", TypeTag::kOid},
                                {"ps_suppkey", TypeTag::kOid},
                                {"ps_availqty", TypeTag::kInt},
                                {"ps_supplycost", TypeTag::kDbl}});
  {
    size_t n_ps = n_part * 4;
    std::vector<Oid> pkeys(n_ps), skeys(n_ps);
    std::vector<int32_t> qtys(n_ps);
    std::vector<double> costs(n_ps);
    for (size_t i = 0; i < n_part; ++i) {
      for (size_t j = 0; j < 4; ++j) {
        size_t k = i * 4 + j;
        pkeys[k] = i;
        skeys[k] = (i + j * (n_supp / 4 + 1)) % n_supp;
        qtys[k] = static_cast<int32_t>(rng.UniformRange(1, 9999));
        costs[k] = rng.UniformDouble(1.0, 1000.0);
      }
    }
    RDB_RETURN_NOT_OK(cat->LoadColumn<Oid>("partsupp", "ps_partkey",
                                           std::move(pkeys), true, false));
    RDB_RETURN_NOT_OK(
        cat->LoadColumn<Oid>("partsupp", "ps_suppkey", std::move(skeys)));
    RDB_RETURN_NOT_OK(
        cat->LoadColumn<int32_t>("partsupp", "ps_availqty", std::move(qtys)));
    RDB_RETURN_NOT_OK(
        cat->LoadColumn<double>("partsupp", "ps_supplycost", std::move(costs)));
  }

  // --- orders + lineitem -------------------------------------------------------
  cat->CreateTable("orders", {{"o_orderkey", TypeTag::kOid},
                              {"o_custkey", TypeTag::kOid},
                              {"o_orderstatus", TypeTag::kStr},
                              {"o_totalprice", TypeTag::kDbl},
                              {"o_orderdate", TypeTag::kDate},
                              {"o_orderpriority", TypeTag::kStr},
                              {"o_comment", TypeTag::kStr}});
  cat->CreateTable("lineitem", {{"l_orderkey", TypeTag::kOid},
                                {"l_partkey", TypeTag::kOid},
                                {"l_suppkey", TypeTag::kOid},
                                {"l_linenumber", TypeTag::kInt},
                                {"l_quantity", TypeTag::kInt},
                                {"l_extendedprice", TypeTag::kDbl},
                                {"l_discount", TypeTag::kDbl},
                                {"l_tax", TypeTag::kDbl},
                                {"l_returnflag", TypeTag::kStr},
                                {"l_linestatus", TypeTag::kStr},
                                {"l_shipdate", TypeTag::kDate},
                                {"l_commitdate", TypeTag::kDate},
                                {"l_receiptdate", TypeTag::kDate},
                                {"l_shipinstruct", TypeTag::kStr},
                                {"l_shipmode", TypeTag::kStr}});
  {
    std::vector<Oid> o_key(n_ord), o_cust(n_ord);
    std::vector<std::string> o_status(n_ord), o_prio(n_ord), o_comment(n_ord);
    std::vector<double> o_total(n_ord);
    std::vector<int32_t> o_date(n_ord);

    std::vector<Oid> l_okey, l_part, l_supp;
    std::vector<int32_t> l_lineno, l_qty, l_ship, l_commit, l_receipt;
    std::vector<double> l_price, l_disc, l_tax;
    std::vector<std::string> l_flag, l_status, l_instr, l_mode;
    // An order has at most 7 lines: reserving that many keeps every column
    // from reallocating, and the pages past the final size are never
    // touched.
    const size_t reserve = n_ord * 7;
    for (auto* v : {&l_okey, &l_part, &l_supp}) v->reserve(reserve);
    for (auto* v : {&l_lineno, &l_qty, &l_ship, &l_commit, &l_receipt})
      v->reserve(reserve);
    for (auto* v : {&l_price, &l_disc, &l_tax}) v->reserve(reserve);
    for (auto* v : {&l_flag, &l_status, &l_instr, &l_mode}) v->reserve(reserve);

    for (size_t o = 0; o < n_ord; ++o) {
      o_key[o] = o;
      o_cust[o] = rng.Uniform(n_cust);
      o_date[o] = static_cast<int32_t>(rng.UniformRange(start, end - 151));
      o_prio[o] = PICK(&rng, kPriorities);
      o_comment[o] = RandomComment(&rng, "special", "requests", 0.01);

      int nl = static_cast<int>(rng.UniformRange(1, 7));
      double total = 0;
      int n_f = 0;
      for (int ln = 0; ln < nl; ++ln) {
        Oid pk = rng.Uniform(n_part);
        int qty = static_cast<int>(rng.UniformRange(1, 50));
        double price = qty * (900 + (static_cast<double>(pk % 1000)) / 10.0) /
                       100.0;
        DateT ship = o_date[o] + static_cast<int>(rng.UniformRange(1, 121));
        DateT commit = o_date[o] + static_cast<int>(rng.UniformRange(30, 90));
        DateT receipt = ship + static_cast<int>(rng.UniformRange(1, 30));
        l_okey.push_back(o);
        l_part.push_back(pk);
        l_supp.push_back((pk + rng.Uniform(4) * (n_supp / 4 + 1)) % n_supp);
        l_lineno.push_back(ln + 1);
        l_qty.push_back(qty);
        l_price.push_back(price);
        l_disc.push_back(rng.Uniform(11) / 100.0);
        l_tax.push_back(rng.Uniform(9) / 100.0);
        if (receipt <= cutoff) {
          l_flag.push_back(rng.Bernoulli(0.5) ? "R" : "A");
        } else {
          l_flag.push_back("N");
        }
        bool fstat = ship <= cutoff;
        l_status.push_back(fstat ? "F" : "O");
        n_f += fstat ? 1 : 0;
        l_ship.push_back(ship);
        l_commit.push_back(commit);
        l_receipt.push_back(receipt);
        l_instr.push_back(PICK(&rng, kShipInstruct));
        l_mode.push_back(PICK(&rng, kShipModes));
        total += price;
      }
      o_total[o] = total;
      o_status[o] = n_f == nl ? "F" : (n_f == 0 ? "O" : "P");
    }

    RDB_RETURN_NOT_OK(cat->LoadColumn<Oid>("orders", "o_orderkey",
                                           std::move(o_key), true, true));
    RDB_RETURN_NOT_OK(
        cat->LoadColumn<Oid>("orders", "o_custkey", std::move(o_cust)));
    RDB_RETURN_NOT_OK(cat->LoadColumn<std::string>("orders", "o_orderstatus",
                                                   std::move(o_status)));
    RDB_RETURN_NOT_OK(
        cat->LoadColumn<double>("orders", "o_totalprice", std::move(o_total)));
    RDB_RETURN_NOT_OK(
        cat->LoadColumn<int32_t>("orders", "o_orderdate", std::move(o_date)));
    RDB_RETURN_NOT_OK(cat->LoadColumn<std::string>("orders", "o_orderpriority",
                                                   std::move(o_prio)));
    RDB_RETURN_NOT_OK(cat->LoadColumn<std::string>("orders", "o_comment",
                                                   std::move(o_comment)));

    RDB_RETURN_NOT_OK(cat->LoadColumn<Oid>("lineitem", "l_orderkey",
                                           std::move(l_okey), true, false));
    RDB_RETURN_NOT_OK(
        cat->LoadColumn<Oid>("lineitem", "l_partkey", std::move(l_part)));
    RDB_RETURN_NOT_OK(
        cat->LoadColumn<Oid>("lineitem", "l_suppkey", std::move(l_supp)));
    RDB_RETURN_NOT_OK(cat->LoadColumn<int32_t>("lineitem", "l_linenumber",
                                               std::move(l_lineno)));
    RDB_RETURN_NOT_OK(
        cat->LoadColumn<int32_t>("lineitem", "l_quantity", std::move(l_qty)));
    RDB_RETURN_NOT_OK(cat->LoadColumn<double>("lineitem", "l_extendedprice",
                                              std::move(l_price)));
    RDB_RETURN_NOT_OK(
        cat->LoadColumn<double>("lineitem", "l_discount", std::move(l_disc)));
    RDB_RETURN_NOT_OK(
        cat->LoadColumn<double>("lineitem", "l_tax", std::move(l_tax)));
    RDB_RETURN_NOT_OK(cat->LoadColumn<std::string>("lineitem", "l_returnflag",
                                                   std::move(l_flag)));
    RDB_RETURN_NOT_OK(cat->LoadColumn<std::string>("lineitem", "l_linestatus",
                                                   std::move(l_status)));
    RDB_RETURN_NOT_OK(
        cat->LoadColumn<int32_t>("lineitem", "l_shipdate", std::move(l_ship)));
    RDB_RETURN_NOT_OK(cat->LoadColumn<int32_t>("lineitem", "l_commitdate",
                                               std::move(l_commit)));
    RDB_RETURN_NOT_OK(cat->LoadColumn<int32_t>("lineitem", "l_receiptdate",
                                               std::move(l_receipt)));
    RDB_RETURN_NOT_OK(cat->LoadColumn<std::string>("lineitem", "l_shipinstruct",
                                                   std::move(l_instr)));
    RDB_RETURN_NOT_OK(cat->LoadColumn<std::string>("lineitem", "l_shipmode",
                                                   std::move(l_mode)));
  }

  // --- join indices -------------------------------------------------------------
  RDB_RETURN_NOT_OK(cat->RegisterFkIndex("li_orders", "lineitem", "l_orderkey",
                                         "orders", "o_orderkey"));
  RDB_RETURN_NOT_OK(cat->RegisterFkIndex("li_part", "lineitem", "l_partkey",
                                         "part", "p_partkey"));
  RDB_RETURN_NOT_OK(cat->RegisterFkIndex("li_supp", "lineitem", "l_suppkey",
                                         "supplier", "s_suppkey"));
  RDB_RETURN_NOT_OK(cat->RegisterFkIndex("ord_cust", "orders", "o_custkey",
                                         "customer", "c_custkey"));
  RDB_RETURN_NOT_OK(cat->RegisterFkIndex("ps_part", "partsupp", "ps_partkey",
                                         "part", "p_partkey"));
  RDB_RETURN_NOT_OK(cat->RegisterFkIndex("ps_supp", "partsupp", "ps_suppkey",
                                         "supplier", "s_suppkey"));
  RDB_RETURN_NOT_OK(cat->RegisterFkIndex("cust_nation", "customer",
                                         "c_nationkey", "nation",
                                         "n_nationkey"));
  RDB_RETURN_NOT_OK(cat->RegisterFkIndex("supp_nation", "supplier",
                                         "s_nationkey", "nation",
                                         "n_nationkey"));
  RDB_RETURN_NOT_OK(cat->RegisterFkIndex("nation_region", "nation",
                                         "n_regionkey", "region",
                                         "r_regionkey"));
  return Status::OK();
}

Status RunUpdateBlock(Catalog* cat, Rng* rng, int orders_per_block) {
  const Table* orders = cat->FindTable("orders");
  const Table* lineitem = cat->FindTable("lineitem");
  const Table* customer = cat->FindTable("customer");
  const Table* part = cat->FindTable("part");
  const Table* supplier = cat->FindTable("supplier");
  if (!orders || !lineitem || !customer || !part || !supplier)
    return Status::NotFound("tpch tables");

  const DateT start = DateFromYmd(1995, 1, 1);
  // New orders get fresh keys above the current maximum (dense keys).
  const auto& okeys =
      orders->column(orders->FindColumn("o_orderkey"))->Data<Oid>();
  Oid next_key = okeys.empty() ? 0 : okeys.back() + 1;

  std::vector<std::vector<Scalar>> new_orders;
  std::vector<std::vector<Scalar>> new_lines;
  for (int i = 0; i < orders_per_block; ++i) {
    Oid key = next_key++;
    DateT odate = start + static_cast<int>(rng->UniformRange(0, 1000));
    int nl = static_cast<int>(rng->UniformRange(1, 7));
    double total = 0;
    for (int ln = 0; ln < nl; ++ln) {
      Oid pk = rng->Uniform(part->num_rows());
      int qty = static_cast<int>(rng->UniformRange(1, 50));
      double price = qty * 9.0;
      DateT ship = odate + static_cast<int>(rng->UniformRange(1, 121));
      new_lines.push_back({Scalar::OidVal(key), Scalar::OidVal(pk),
                           Scalar::OidVal(rng->Uniform(supplier->num_rows())),
                           Scalar::Int(ln + 1), Scalar::Int(qty),
                           Scalar::Dbl(price),
                           Scalar::Dbl(rng->Uniform(11) / 100.0),
                           Scalar::Dbl(rng->Uniform(9) / 100.0),
                           Scalar::Str("N"), Scalar::Str("O"),
                           Scalar::DateVal(ship), Scalar::DateVal(odate + 45),
                           Scalar::DateVal(ship + 7),
                           Scalar::Str("NONE"), Scalar::Str("MAIL")});
      total += price;
    }
    new_orders.push_back({Scalar::OidVal(key),
                          Scalar::OidVal(rng->Uniform(customer->num_rows())),
                          Scalar::Str("O"), Scalar::Dbl(total),
                          Scalar::DateVal(odate), Scalar::Str("3-MEDIUM"),
                          Scalar::Str("recycled order")});
  }
  // One write set per refresh block: the inserts and deletes install as a
  // single commit (one epoch bump, one round of pool maintenance).
  TxnWriteSet ws = cat->BeginWrite();
  RDB_RETURN_NOT_OK(cat->Append(&ws, "orders", std::move(new_orders)));
  RDB_RETURN_NOT_OK(cat->Append(&ws, "lineitem", std::move(new_lines)));

  // Delete a matching set of old orders and their lineitems (RF2).
  size_t n_ord = orders->num_rows();
  std::vector<Oid> del_orders;
  std::vector<Oid> del_order_keys;
  for (int i = 0; i < orders_per_block; ++i) {
    Oid row = rng->Uniform(n_ord);
    del_orders.push_back(row);
    del_order_keys.push_back(okeys[row]);
  }
  const auto& lkeys =
      lineitem->column(lineitem->FindColumn("l_orderkey"))->Data<Oid>();
  std::vector<Oid> del_lines;
  for (size_t i = 0; i < lkeys.size(); ++i) {
    for (Oid k : del_order_keys) {
      if (lkeys[i] == k) {
        del_lines.push_back(i);
        break;
      }
    }
  }
  RDB_RETURN_NOT_OK(cat->Delete(&ws, "orders", std::move(del_orders)));
  RDB_RETURN_NOT_OK(cat->Delete(&ws, "lineitem", std::move(del_lines)));
  return cat->CommitWrite(&ws);
}

}  // namespace recycledb::tpch
