//===- Workloads.cpp - The benchmark workload suite -------------------------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//

#include "workloads/Workloads.h"

#include "support/Rng.h"

#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>

using namespace bigfoot;

namespace {

/// Replaces @NAME@ placeholders with integer values.
std::string subst(std::string Tmpl,
                  const std::map<std::string, int64_t> &Vars) {
  for (const auto &[Name, Value] : Vars) {
    std::string Key = "@" + Name + "@";
    std::string Rep = std::to_string(Value);
    size_t Pos = 0;
    while ((Pos = Tmpl.find(Key, Pos)) != std::string::npos) {
      Tmpl.replace(Pos, Key.size(), Rep);
      Pos += Rep.size();
    }
  }
  return Tmpl;
}

bool isBench(SuiteScale S) { return S == SuiteScale::Bench; }

//===----------------------------------------------------------------------===
// JavaGrande-shaped kernels.
//===----------------------------------------------------------------------===

Workload crypt(SuiteScale S) {
  // IDEA-style streaming cipher: dense, disjoint, contiguous block sweeps
  // over large arrays — the best case for check coalescing.
  const char *Tmpl = R"(
class Crypt {
  fields dummy;
  method encrypt(src, dst, key, lo, hi) {
    i = lo;
    while (i < hi) {
      v = src[i];
      dst[i] = (v + key) % 256;
      i = i + 1;
    }
  }
  method decrypt(src, dst, key, lo, hi) {
    i = lo;
    while (i < hi) {
      v = src[i];
      dst[i] = (v - key + 256) % 256;
      i = i + 1;
    }
  }
}
thread {
  n = @N@;
  plain = new_array(n);
  enc = new_array(n);
  dec = new_array(n);
  i = 0;
  while (i < n) {
    plain[i] = i % 251;
    i = i + 1;
  }
  c1 = new Crypt;
  c2 = new Crypt;
  mid = n / 2;
  fork t1 = c1.encrypt(plain, enc, 37, 0, mid);
  fork t2 = c2.encrypt(plain, enc, 37, mid, n);
  join t1;
  join t2;
  fork t3 = c1.decrypt(enc, dec, 37, 0, mid);
  fork t4 = c2.decrypt(enc, dec, 37, mid, n);
  join t3;
  join t4;
  a0 = plain[7];
  b0 = dec[7];
  assert a0 == b0;
}
)";
  return {"crypt", "block cipher: dense disjoint block sweeps",
          subst(Tmpl, {{"N", isBench(S) ? 60000 : 400}})};
}

Workload series(SuiteScale S) {
  // Fourier coefficients: almost all time in thread-local arithmetic, one
  // strided shared write per term — negligible overhead for every tool.
  const char *Tmpl = R"(
class Series {
  fields dummy;
  method compute(out, id, n, terms) {
    i = id;
    while (i < n) {
      acc = 0;
      k = 1;
      while (k <= terms) {
        acc = (acc * 31 + i * k) % 10007;
        k = k + 1;
      }
      out[i] = acc;
      i = i + 2;
    }
  }
}
thread {
  n = @N@;
  terms = @TERMS@;
  out = new_array(n);
  s1 = new Series;
  s2 = new Series;
  fork t1 = s1.compute(out, 0, n, terms);
  fork t2 = s2.compute(out, 1, n, terms);
  join t1;
  join t2;
  v = out[2];
  assert v >= 0;
}
)";
  return {"series", "coefficient series: compute-dominated, strided writes",
          subst(Tmpl, {{"N", isBench(S) ? 600 : 40},
                       {"TERMS", isBench(S) ? 400 : 20}})};
}

Workload lufact(SuiteScale S) {
  // LU factorization: triangular row updates — coalesced checks whose
  // shrinking ranges defeat the adaptive array representation.
  const char *Tmpl = R"(
class Lu {
  fields dummy;
  method eliminate(m, n, id, bar) {
    k = 0;
    while (k < n - 1) {
      prow = m[k];
      r = k + 1 + id;
      while (r < n) {
        row = m[r];
        pv = prow[k];
        rv = row[k];
        factor = (rv - pv) % 97;
        j = k;
        while (j < n) {
          pj = prow[j];
          rj = row[j];
          row[j] = (rj - pj * factor) % 10007;
          j = j + 1;
        }
        r = r + 2;
      }
      await bar;
      k = k + 1;
    }
  }
}
thread {
  n = @N@;
  m = new_array(n);
  i = 0;
  while (i < n) {
    row = new_array(n);
    j = 0;
    while (j < n) {
      row[j] = (i * 31 + j * 7) % 100 + 1;
      j = j + 1;
    }
    m[i] = row;
    i = i + 1;
  }
  bar = new_barrier(2);
  l1 = new Lu;
  l2 = new Lu;
  fork t1 = l1.eliminate(m, n, 0, bar);
  fork t2 = l2.eliminate(m, n, 1, bar);
  join t1;
  join t2;
}
)";
  return {"lufact", "LU factorization: triangular shrinking ranges",
          subst(Tmpl, {{"N", isBench(S) ? 44 : 10}})};
}

Workload moldyn(SuiteScale S) {
  // Molecular dynamics: barrier-phased force computation (read all
  // positions, write own force slice) then integration.
  const char *Tmpl = R"(
class Md {
  fields dummy;
  method simulate(x, f, lo, hi, n, bar, iters) {
    it = 0;
    while (it < iters) {
      i = lo;
      while (i < hi) {
        acc = 0;
        j = 0;
        while (j < n) {
          xj = x[j];
          xi = x[i];
          acc = (acc + xi - xj) % 1000;
          j = j + 1;
        }
        f[i] = acc;
        i = i + 1;
      }
      await bar;
      i = lo;
      while (i < hi) {
        fv = f[i];
        xv = x[i];
        x[i] = (xv + fv) % 1000;
        i = i + 1;
      }
      await bar;
      it = it + 1;
    }
  }
}
thread {
  n = @N@;
  iters = @ITERS@;
  x = new_array(n);
  f = new_array(n);
  i = 0;
  while (i < n) {
    x[i] = i % 97;
    i = i + 1;
  }
  bar = new_barrier(2);
  mid = n / 2;
  m1 = new Md;
  m2 = new Md;
  fork t1 = m1.simulate(x, f, 0, mid, n, bar, iters);
  fork t2 = m2.simulate(x, f, mid, n, n, bar, iters);
  join t1;
  join t2;
}
)";
  return {"moldyn", "molecular dynamics: barrier-phased force/update",
          subst(Tmpl, {{"N", isBench(S) ? 260 : 16},
                       {"ITERS", isBench(S) ? 3 : 2}})};
}

Workload montecarlo(SuiteScale S) {
  // Monte Carlo pricing: large thread-local walk arrays, one shared
  // result write per task — coarse shadow locations everywhere.
  const char *Tmpl = R"(
class Mc {
  fields dummy;
  method sample(results, id, paths, steps) {
    total = 0;
    p = 0;
    while (p < paths) {
      walk = new_array(steps);
      s = id + p + 1;
      k = 0;
      while (k < steps) {
        s = (s * 1103515245 + 12345) % 2048;
        walk[k] = s;
        k = k + 1;
      }
      sum = 0;
      k = 0;
      while (k < steps) {
        v = walk[k];
        sum = sum + v;
        k = k + 1;
      }
      total = (total + sum) % 1000000;
      p = p + 1;
    }
    results[id] = total;
  }
}
thread {
  paths = @PATHS@;
  steps = @STEPS@;
  results = new_array(2);
  m1 = new Mc;
  m2 = new Mc;
  fork t1 = m1.sample(results, 0, paths, steps);
  fork t2 = m2.sample(results, 1, paths, steps);
  join t1;
  join t2;
  r0 = results[0];
  assert r0 >= 0;
}
)";
  return {"montecarlo", "Monte Carlo: thread-local walks, coarse shadows",
          subst(Tmpl, {{"PATHS", isBench(S) ? 20 : 3},
                       {"STEPS", isBench(S) ? 700 : 30}})};
}

Workload sparse(SuiteScale S) {
  // Sparse mat-vec: sequential reads of the index arrays (coalescible)
  // plus indirect gathers/scatters that are not.
  const char *Tmpl = R"(
class Sp {
  fields dummy;
  method spmv(row, col, val, x, y, lo, hi) {
    i = lo;
    while (i < hi) {
      r = row[i];
      c = col[i];
      v = val[i];
      xv = x[c];
      yv = y[r];
      y[r] = (yv + v * xv) % 10007;
      i = i + 1;
    }
  }
}
thread {
  n = @N@;
  nz = @NZ@;
  rows = @ROWS@;
  row = new_array(nz);
  col = new_array(nz);
  val = new_array(nz);
  x = new_array(n);
  y = new_array(rows);
  per = nz / rows;
  i = 0;
  while (i < nz) {
    row[i] = i / per;
    col[i] = (i * 7 + 3) % n;
    val[i] = i % 13 + 1;
    i = i + 1;
  }
  i = 0;
  while (i < n) {
    x[i] = i % 29;
    i = i + 1;
  }
  mid = nz / 2;
  s1 = new Sp;
  s2 = new Sp;
  fork t1 = s1.spmv(row, col, val, x, y, 0, mid);
  fork t2 = s2.spmv(row, col, val, x, y, mid, nz);
  join t1;
  join t2;
}
)";
  // mid is a multiple of per, so the two workers write disjoint rows.
  return {"sparse", "sparse mat-vec: sequential index reads + gathers",
          subst(Tmpl, {{"N", isBench(S) ? 2000 : 64},
                       {"NZ", isBench(S) ? 16000 : 64},
                       {"ROWS", isBench(S) ? 400 : 16}})};
}

Workload sor(SuiteScale S) {
  // Red-black successive over-relaxation: strided sweeps with barriers.
  const char *Tmpl = R"(
class Sor {
  fields dummy;
  method sweep(g, lo, hi, bar, iters) {
    it = 0;
    while (it < iters) {
      i = lo + 1;
      while (i < hi) {
        a = g[i - 1];
        b = g[i + 1];
        g[i] = (a + b) / 2;
        i = i + 2;
      }
      await bar;
      i = lo + 2;
      while (i < hi) {
        a = g[i - 1];
        b = g[i + 1];
        g[i] = (a + b) / 2;
        i = i + 2;
      }
      await bar;
      it = it + 1;
    }
  }
}
thread {
  n = @N@;
  g = new_array(n + 2);
  i = 0;
  while (i < n + 2) {
    g[i] = i % 100;
    i = i + 1;
  }
  bar = new_barrier(2);
  mid = n / 2;
  s1 = new Sor;
  s2 = new Sor;
  fork t1 = s1.sweep(g, 0, mid, bar, @ITERS@);
  fork t2 = s2.sweep(g, mid, n, bar, @ITERS@);
  join t1;
  join t2;
}
)";
  // mid is even, so both workers update odds then evens in phase.
  return {"sor", "red-black SOR: strided phases under barriers",
          subst(Tmpl, {{"N", isBench(S) ? 12000 : 64},
                       {"ITERS", isBench(S) ? 4 : 2}})};
}

//===----------------------------------------------------------------------===
// DaCapo-shaped kernels.
//===----------------------------------------------------------------------===

Workload batik(SuiteScale S) {
  // SVG rasterizer stand-in: bounding boxes over a shape graph, lock-
  // merged results — a balanced field/array mix.
  const char *Tmpl = R"(
class Shape {
  fields x, y, w, h;
}
class Bounds {
  fields minx, miny, maxx, maxy;
}
class Rasterizer {
  fields dummy;
  method bounds(shapes, lo, hi, acc, lock) {
    mnx = 1000000;
    mny = 1000000;
    mxx = 0;
    mxy = 0;
    i = lo;
    while (i < hi) {
      s = shapes[i];
      sx = s.x;
      sy = s.y;
      sw = s.w;
      sh = s.h;
      if (sx < mnx) { mnx = sx; }
      if (sy < mny) { mny = sy; }
      right = sx + sw;
      if (right > mxx) { mxx = right; }
      bottom = sy + sh;
      if (bottom > mxy) { mxy = bottom; }
      i = i + 1;
    }
    acq(lock);
    cx = acc.minx;
    if (mnx < cx) { acc.minx = mnx; }
    cy = acc.miny;
    if (mny < cy) { acc.miny = mny; }
    gx = acc.maxx;
    if (mxx > gx) { acc.maxx = mxx; }
    gy = acc.maxy;
    if (mxy > gy) { acc.maxy = mxy; }
    rel(lock);
  }
}
thread {
  n = @N@;
  shapes = new_array(n);
  i = 0;
  while (i < n) {
    s = new Shape;
    s.x = (i * 13) % 500;
    s.y = (i * 7) % 400;
    s.w = i % 50 + 1;
    s.h = i % 30 + 1;
    shapes[i] = s;
    i = i + 1;
  }
  acc = new Bounds;
  acc.minx = 1000000;
  acc.miny = 1000000;
  lock = new Bounds;
  r1 = new Rasterizer;
  r2 = new Rasterizer;
  mid = n / 2;
  fork t1 = r1.bounds(shapes, 0, mid, acc, lock);
  fork t2 = r2.bounds(shapes, mid, n, acc, lock);
  join t1;
  join t2;
  fx = acc.maxx;
  assert fx > 0;
}
)";
  return {"batik", "SVG bounds: shape-graph fields + lock merges",
          subst(Tmpl, {{"N", isBench(S) ? 6000 : 40}})};
}

Workload raytracer(SuiteScale S) {
  // JavaGrande raytracer: per-pixel loops reading whole field groups of
  // read-shared scene objects — where field proxies pay off most.
  const char *Tmpl = R"(
class Sphere {
  fields cx, cy, cz, rad;
}
class Tracer {
  fields dummy;
  method render(scene, ns, pixels, lo, hi) {
    p = lo;
    while (p < hi) {
      acc = 0;
      s = 0;
      while (s < ns) {
        sp = scene[s];
        a = sp.cx;
        b = sp.cy;
        c = sp.cz;
        r = sp.rad;
        d = (p - a) * (p - a) + (p - b) * (p - b) + (p - c) * (p - c);
        if (d < r * r) {
          acc = acc + 255 - s * 16;
        }
        s = s + 1;
      }
      pixels[p] = acc;
      p = p + 1;
    }
  }
}
thread {
  ns = @NS@;
  np = @NP@;
  scene = new_array(ns);
  i = 0;
  while (i < ns) {
    sp = new Sphere;
    sp.cx = (i * 37) % 100;
    sp.cy = (i * 53) % 100;
    sp.cz = (i * 11) % 100;
    sp.rad = i % 20 + 40;
    scene[i] = sp;
    i = i + 1;
  }
  pixels = new_array(np);
  mid = np / 2;
  r1 = new Tracer;
  r2 = new Tracer;
  fork t1 = r1.render(scene, ns, pixels, 0, mid);
  fork t2 = r2.render(scene, ns, pixels, mid, np);
  join t1;
  join t2;
}
)";
  return {"raytracer", "raytracer: field-group reads, proxy-friendly",
          subst(Tmpl, {{"NS", isBench(S) ? 12 : 3},
                       {"NP", isBench(S) ? 2400 : 24}})};
}

Workload tomcat(SuiteScale S) {
  // Server stand-in: many small lock-guarded critical sections on shared
  // statistics — synchronization dominates, little for BigFoot to move.
  const char *Tmpl = R"(
class Stats {
  fields hits, bytes, errors;
}
class Handler {
  fields dummy;
  method serve(st, lock, requests, id) {
    r = 0;
    while (r < requests) {
      size = (r * 31 + id * 7) % 1500;
      acq(lock);
      h = st.hits;
      st.hits = h + 1;
      b = st.bytes;
      st.bytes = b + size;
      if (size % 97 == 0) {
        e = st.errors;
        st.errors = e + 1;
      }
      rel(lock);
      r = r + 1;
    }
  }
}
thread {
  st = new Stats;
  lock = new Stats;
  h1 = new Handler;
  h2 = new Handler;
  reqs = @REQS@;
  fork t1 = h1.serve(st, lock, reqs, 1);
  fork t2 = h2.serve(st, lock, reqs, 2);
  join t1;
  join t2;
  total = st.hits;
  assert total == reqs + reqs;
}
)";
  return {"tomcat", "server: lock-dominated tiny critical sections",
          subst(Tmpl, {{"REQS", isBench(S) ? 2500 : 30}})};
}

Workload sunflow(SuiteScale S) {
  // Renderer stand-in: strided pixel sampling over material field groups
  // plus an accumulation buffer.
  const char *Tmpl = R"(
class Material {
  fields r, g, b, spec;
}
class Renderer {
  fields dummy;
  method shade(mats, nm, buf, offset, n) {
    p = offset;
    while (p < n) {
      acc = 0;
      m = 0;
      while (m < nm) {
        mat = mats[m];
        cr = mat.r;
        cg = mat.g;
        cb = mat.b;
        cs = mat.spec;
        acc = (acc + cr * p + cg + cb + cs) % 255;
        m = m + 1;
      }
      buf[p] = acc;
      p = p + 2;
    }
  }
}
thread {
  nm = @NM@;
  n = @N@;
  mats = new_array(nm);
  i = 0;
  while (i < nm) {
    mat = new Material;
    mat.r = (i * 41) % 256;
    mat.g = (i * 79) % 256;
    mat.b = (i * 23) % 256;
    mat.spec = i % 8;
    mats[i] = mat;
    i = i + 1;
  }
  buf = new_array(n);
  r1 = new Renderer;
  r2 = new Renderer;
  fork t1 = r1.shade(mats, nm, buf, 0, n);
  fork t2 = r2.shade(mats, nm, buf, 1, n);
  join t1;
  join t2;
}
)";
  return {"sunflow", "renderer: strided sampling over material groups",
          subst(Tmpl, {{"NM", isBench(S) ? 10 : 3},
                       {"N", isBench(S) ? 3000 : 24}})};
}

Workload luindex(SuiteScale S) {
  // Document indexing: sequential text scans into thread-local
  // histograms, per-document stats to disjoint slots.
  const char *Tmpl = R"(
class Indexer {
  fields dummy;
  method index(text, doclen, stats, firstdoc, lastdoc) {
    d = firstdoc;
    while (d < lastdoc) {
      hist = new_array(26);
      dl = doclen[d];
      base = d * dl;
      i = 0;
      while (i < dl) {
        ch = text[base + i];
        slot = ch % 26;
        hv = hist[slot];
        hist[slot] = hv + 1;
        i = i + 1;
      }
      score = 0;
      k = 0;
      while (k < 26) {
        hv = hist[k];
        score = score + hv * k;
        k = k + 1;
      }
      stats[d] = score;
      d = d + 1;
    }
  }
}
thread {
  docs = @DOCS@;
  dl = @DOCLEN@;
  n = docs * dl;
  text = new_array(n);
  doclen = new_array(docs);
  i = 0;
  while (i < n) {
    text[i] = (i * 17 + 5) % 97;
    i = i + 1;
  }
  i = 0;
  while (i < docs) {
    doclen[i] = dl;
    i = i + 1;
  }
  stats = new_array(docs);
  mid = docs / 2;
  x1 = new Indexer;
  x2 = new Indexer;
  fork t1 = x1.index(text, doclen, stats, 0, mid);
  fork t2 = x2.index(text, doclen, stats, mid, docs);
  join t1;
  join t2;
}
)";
  return {"luindex", "indexing: sequential scans + local histograms",
          subst(Tmpl, {{"DOCS", isBench(S) ? 40 : 4},
                       {"DOCLEN", isBench(S) ? 600 : 20}})};
}

Workload pmd(SuiteScale S) {
  // Source analyzer stand-in: read-only pointer chasing over a shared
  // node list — per-node field pairs coalesce but nothing hoists.
  const char *Tmpl = R"(
class Node {
  fields val, next;
}
class Analyzer {
  fields result;
  method scan(head, reps) {
    total = 0;
    r = 0;
    while (r < reps) {
      cur = head;
      while (cur != null) {
        v = cur.val;
        total = (total + v) % 1000003;
        cur = cur.next;
      }
      r = r + 1;
    }
    this.result = total;
  }
}
thread {
  len = @LEN@;
  head = null;
  i = 0;
  while (i < len) {
    nd = new Node;
    nd.val = i * 3 + 1;
    nd.next = head;
    head = nd;
    i = i + 1;
  }
  a1 = new Analyzer;
  a2 = new Analyzer;
  fork t1 = a1.scan(head, @REPS@);
  fork t2 = a2.scan(head, @REPS@);
  join t1;
  join t2;
  x = a1.result;
  y = a2.result;
  assert x == y;
}
)";
  return {"pmd", "analyzer: pointer chasing over a shared AST list",
          subst(Tmpl, {{"LEN", isBench(S) ? 900 : 12},
                       {"REPS", isBench(S) ? 8 : 2}})};
}

Workload fop(SuiteScale S) {
  // Formatter stand-in: per-worker forests with parent-pointer width
  // propagation — sequential writes plus indirect parent reads.
  const char *Tmpl = R"(
class Layout {
  fields dummy;
  method widths(parent, width, lo, hi) {
    i = lo + 1;
    while (i < hi) {
      p = parent[i];
      pw = width[p];
      w = width[i];
      width[i] = (w + pw) % 4096;
      i = i + 1;
    }
  }
}
thread {
  n = @N@;
  parent = new_array(n);
  width = new_array(n);
  mid = n / 2;
  i = 0;
  while (i < mid) {
    parent[i] = i / 2;
    width[i] = i % 17 + 1;
    i = i + 1;
  }
  while (i < n) {
    off = i - mid;
    parent[i] = mid + off / 2;
    width[i] = i % 17 + 1;
    i = i + 1;
  }
  f1 = new Layout;
  f2 = new Layout;
  fork t1 = f1.widths(parent, width, 0, mid);
  fork t2 = f2.widths(parent, width, mid, n);
  join t1;
  join t2;
}
)";
  return {"fop", "formatter: parent-pointer width propagation",
          subst(Tmpl, {{"N", isBench(S) ? 20000 : 64}})};
}

Workload lusearch(SuiteScale S) {
  // Search stand-in: binary probes into a read-shared term index, each
  // followed by a sequential posting-list scan (the dominant cost in
  // Lucene-style search), with per-thread result buffers.
  const char *Tmpl = R"(
class Searcher {
  fields dummy;
  method search(index, postings, n, queries, results, id) {
    q = 0;
    while (q < queries) {
      target = (q * 37 + id * 11) % (n * 2);
      lo = 0;
      hi = n;
      found = 0;
      while (lo < hi) {
        m = (lo + hi) / 2;
        v = index[m];
        if (v == target) {
          found = m;
          hi = lo;
        } else {
          if (v < target) {
            lo = m + 1;
          } else {
            hi = m;
          }
        }
      }
      score = 0;
      pbase = found * 8;
      pend = pbase + 8;
      p = pbase;
      while (p < pend) {
        pv = postings[p];
        score = score + pv;
        p = p + 1;
      }
      results[q] = score;
      q = q + 1;
    }
  }
}
thread {
  n = @N@;
  queries = @Q@;
  index = new_array(n);
  postings = new_array(n * 8);
  i = 0;
  while (i < n) {
    index[i] = i * 2;
    i = i + 1;
  }
  i = 0;
  while (i < n * 8) {
    postings[i] = i % 50;
    i = i + 1;
  }
  res1 = new_array(queries);
  res2 = new_array(queries);
  s1 = new Searcher;
  s2 = new Searcher;
  fork t1 = s1.search(index, postings, n, queries, res1, 1);
  fork t2 = s2.search(index, postings, n, queries, res2, 2);
  join t1;
  join t2;
}
)";
  return {"lusearch", "search: index probes + posting-list scans",
          subst(Tmpl, {{"N", isBench(S) ? 2000 : 32},
                       {"Q", isBench(S) ? 700 : 8}})};
}

Workload avrora(SuiteScale S) {
  // Device simulator stand-in: two devices ping-ponging through volatile
  // flags — synchronization bookkeeping dominates everything.
  const char *Tmpl = R"(
class Chan {
  fields data;
  volatile fields flag;
}
class Device {
  fields sum;
  method producer(ch, rounds) {
    r = 0;
    while (r < rounds) {
      ch.data = r * 3 + 1;
      ch.flag = r + 1;
      spin = ch.flag;
      while (spin != 0 - (r + 1)) {
        spin = ch.flag;
      }
      r = r + 1;
    }
  }
  method consumer(ch, rounds) {
    total = 0;
    r = 0;
    while (r < rounds) {
      spin = ch.flag;
      while (spin != r + 1) {
        spin = ch.flag;
      }
      v = ch.data;
      total = total + v;
      ch.flag = 0 - (r + 1);
      r = r + 1;
    }
    this.sum = total;
  }
}
thread {
  ch = new Chan;
  rounds = @ROUNDS@;
  d1 = new Device;
  d2 = new Device;
  fork t1 = d1.producer(ch, rounds);
  fork t2 = d2.consumer(ch, rounds);
  join t1;
  join t2;
  s = d2.sum;
  assert s > 0;
}
)";
  return {"avrora", "simulator: volatile ping-pong channels",
          subst(Tmpl, {{"ROUNDS", isBench(S) ? 600 : 10}})};
}

Workload jython(SuiteScale S) {
  // Interpreter stand-in: bytecode dispatch over a stack machine with
  // data-dependent stack indices and global loads.
  const char *Tmpl = R"(
class Interp {
  fields result;
  method execute(ops, nops, globals, ng, reps) {
    stack = new_array(64);
    total = 0;
    r = 0;
    while (r < reps) {
      sp = 0;
      pc = 0;
      while (pc < nops) {
        op = ops[pc];
        kind = op % 3;
        if (kind == 0) {
          stack[sp] = op;
          sp = sp + 1;
        } else {
          if (kind == 1 && sp >= 2) {
            a = stack[sp - 1];
            b = stack[sp - 2];
            stack[sp - 2] = (a + b) % 65536;
            sp = sp - 1;
          } else {
            gslot = op % ng;
            gv = globals[gslot];
            if (sp < 60) {
              stack[sp] = gv;
              sp = sp + 1;
            }
          }
        }
        pc = pc + 1;
      }
      if (sp > 0) {
        top = stack[sp - 1];
        total = (total + top) % 1000003;
      }
      r = r + 1;
    }
    this.result = total;
  }
}
thread {
  nops = @NOPS@;
  ng = 16;
  ops = new_array(nops);
  globals = new_array(ng);
  i = 0;
  while (i < nops) {
    ops[i] = (i * 29 + 7) % 256;
    i = i + 1;
  }
  i = 0;
  while (i < ng) {
    globals[i] = i * 5;
    i = i + 1;
  }
  v1 = new Interp;
  v2 = new Interp;
  fork t1 = v1.execute(ops, nops, globals, ng, @REPS@);
  fork t2 = v2.execute(ops, nops, globals, ng, @REPS@);
  join t1;
  join t2;
  x = v1.result;
  y = v2.result;
  assert x == y;
}
)";
  return {"jython", "interpreter: data-dependent stack machine",
          subst(Tmpl, {{"NOPS", isBench(S) ? 600 : 24},
                       {"REPS", isBench(S) ? 10 : 2}})};
}

Workload xalan(SuiteScale S) {
  // XSLT stand-in: disjoint transform sweeps with a lock-guarded shared
  // symbol table touched per element.
  const char *Tmpl = R"(
class Table {
  fields entries, collisions;
}
class Transformer {
  fields dummy;
  method transform(in, out, lo, hi, table, lock) {
    i = lo;
    while (i < hi) {
      v = in[i];
      out[i] = (v * 31 + 7) % 65536;
      if (v % 8 == 0) {
        acq(lock);
        e = table.entries;
        table.entries = e + 1;
        if (v % 64 == 0) {
          c = table.collisions;
          table.collisions = c + 1;
        }
        rel(lock);
      }
      i = i + 1;
    }
  }
}
thread {
  n = @N@;
  in = new_array(n);
  out = new_array(n);
  i = 0;
  while (i < n) {
    in[i] = (i * 13) % 512;
    i = i + 1;
  }
  table = new Table;
  lock = new Table;
  x1 = new Transformer;
  x2 = new Transformer;
  mid = n / 2;
  fork t1 = x1.transform(in, out, 0, mid, table, lock);
  fork t2 = x2.transform(in, out, mid, n, table, lock);
  join t1;
  join t2;
}
)";
  return {"xalan", "XSLT: transform sweeps + locked symbol table",
          subst(Tmpl, {{"N", isBench(S) ? 9000 : 64}})};
}

Workload h2(SuiteScale S) {
  // Database stand-in: small lock-guarded transactions over scattered
  // table rows — synchronization-bound with unstructured accesses.
  const char *Tmpl = R"(
class Db {
  fields committed;
}
class Client {
  fields dummy;
  method transactions(table, n, db, lock, count, id) {
    t = 0;
    while (t < count) {
      r1 = (t * 7 + id * 13) % n;
      r2 = (t * 11 + id * 17) % n;
      r3 = (t * 13 + id * 29) % n;
      acq(lock);
      a = table[r1];
      b = table[r2];
      table[r3] = (a + b + 1) % 100000;
      c = db.committed;
      db.committed = c + 1;
      rel(lock);
      t = t + 1;
    }
  }
}
thread {
  n = @N@;
  count = @TXNS@;
  table = new_array(n);
  i = 0;
  while (i < n) {
    table[i] = i;
    i = i + 1;
  }
  db = new Db;
  lock = new Db;
  c1 = new Client;
  c2 = new Client;
  fork t1 = c1.transactions(table, n, db, lock, count, 1);
  fork t2 = c2.transactions(table, n, db, lock, count, 2);
  join t1;
  join t2;
  done = db.committed;
  assert done == count + count;
}
)";
  return {"h2", "database: locked transactions on scattered rows",
          subst(Tmpl, {{"N", isBench(S) ? 500 : 32},
                       {"TXNS", isBench(S) ? 1800 : 20}})};
}

} // namespace

std::vector<Workload> bigfoot::standardSuite(SuiteScale Scale) {
  return {crypt(Scale),      series(Scale),   lufact(Scale),
          moldyn(Scale),     montecarlo(Scale), sparse(Scale),
          sor(Scale),        batik(Scale),    raytracer(Scale),
          tomcat(Scale),     sunflow(Scale),  luindex(Scale),
          pmd(Scale),        fop(Scale),      lusearch(Scale),
          avrora(Scale),     jython(Scale),   xalan(Scale),
          h2(Scale)};
}

Workload bigfoot::workloadByName(const std::string &Name, SuiteScale Scale) {
  for (Workload &W : standardSuite(Scale))
    if (W.Name == Name)
      return W;
  std::fprintf(stderr, "unknown workload '%s'\n", Name.c_str());
  std::abort();
}

std::vector<Workload> bigfoot::racyVariants() {
  std::vector<Workload> Out;
  Out.push_back({"racy_counter", "unlocked shared counter", R"(
class Counter { fields n; }
class W {
  fields dummy;
  method bump(c, times) {
    i = 0;
    while (i < times) {
      v = c.n;
      c.n = v + 1;
      i = i + 1;
    }
  }
}
thread {
  c = new Counter;
  w1 = new W;
  w2 = new W;
  fork t1 = w1.bump(c, 50);
  fork t2 = w2.bump(c, 50);
  join t1;
  join t2;
}
)"});
  Out.push_back({"racy_overlap", "overlapping array sweeps", R"(
class W {
  fields dummy;
  method fill(a, lo, hi) {
    i = lo;
    while (i < hi) {
      a[i] = i;
      i = i + 1;
    }
  }
}
thread {
  a = new_array(100);
  w1 = new W;
  w2 = new W;
  fork t1 = w1.fill(a, 0, 60);
  fork t2 = w2.fill(a, 40, 100);
  join t1;
  join t2;
}
)"});
  Out.push_back({"racy_nobarrier", "missing phase barrier", R"(
class W {
  fields acc;
  method run(a, mine, other, n) {
    i = mine;
    while (i < n) {
      a[i] = i;
      i = i + 2;
    }
    s = 0;
    j = other;
    while (j < n) {
      v = a[j];
      s = s + v;
      j = j + 2;
    }
    this.acc = s;
  }
}
thread {
  a = new_array(64);
  w1 = new W;
  w2 = new W;
  fork t1 = w1.run(a, 0, 1, 64);
  fork t2 = w2.run(a, 1, 0, 64);
  join t1;
  join t2;
}
)"});
  return Out;
}

std::string bigfoot::generatedMethodProgram(unsigned Blocks, uint64_t Seed) {
  Rng R(Seed);
  std::ostringstream OS;
  OS << "class C {\n  fields f, g, h;\n"
     << "  method big(a, b, o, lk, n) {\n";
  for (unsigned K = 0; K < Blocks; ++K) {
    switch (R.nextBelow(5)) {
    case 0: // A counted loop over both arrays.
      OS << "    i" << K << " = 0;\n"
         << "    while (i" << K << " < n) {\n"
         << "      v" << K << " = a[i" << K << "];\n"
         << "      b[i" << K << "] = v" << K << " + 1;\n"
         << "      i" << K << " = i" << K << " + 1;\n"
         << "    }\n";
      break;
    case 1: // A stride-2 loop.
      OS << "    j" << K << " = " << R.nextBelow(2) << ";\n"
         << "    while (j" << K << " < n) {\n"
         << "      a[j" << K << "] = j" << K << ";\n"
         << "      j" << K << " = j" << K << " + 2;\n"
         << "    }\n";
      break;
    case 2: // A lock-guarded field update.
      OS << "    acq(lk);\n"
         << "    t" << K << " = o.f;\n"
         << "    o.f = t" << K << " + 1;\n"
         << "    rel(lk);\n";
      break;
    case 3: // An if/else over a field and an array element.
      OS << "    if (n < " << R.nextBelow(100) << ") {\n"
         << "      o.g = " << K << ";\n"
         << "    } else {\n"
         << "      u" << K << " = b[" << R.nextBelow(8) << "];\n"
         << "    }\n";
      break;
    default: // Field reads.
      OS << "    r" << K << " = o.h;\n"
         << "    s" << K << " = o.g;\n";
      break;
    }
  }
  OS << "  }\n}\n"
     << "thread {\n  n = 64;\n  a = new_array(n);\n  b = new_array(n);\n"
     << "  o = new C;\n  lk = new C;\n  c = new C;\n"
     << "  c.big(a, b, o, lk, n);\n}\n";
  return OS.str();
}
