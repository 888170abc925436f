//===- perfbench/Oracle.cpp - Independent max-flow oracle -----------------===//
//
// Part of the PACO project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// Checks the parametric solver from outside: the Theorem-1 network is
// evaluated at concrete parameter values and its maximum flow computed by
// a plain Edmonds-Karp in long double. By max-flow/min-cut duality that
// value is the minimum cut, so it must equal the cost expression of the
// choice the solver picks there. Nothing here calls into netflow, poly or
// partition except the one pickChoice being checked.
//
// Also here: the order-free form of a rendered program, which lets two
// compiles of one source be compared when they list the same terms and
// constraints in another order.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <limits>
#include <sstream>

using namespace paco;
using namespace perfbench;

namespace {

constexpr long double Inf = std::numeric_limits<long double>::infinity();

long double toLong(const BigInt &V) {
  return V.fitsInt64() ? static_cast<long double>(V.toInt64())
                       : static_cast<long double>(V.toDouble());
}

long double toLong(const Rational &V) {
  return toLong(V.numerator()) / toLong(V.denominator());
}

} // namespace

long double perfbench::maxFlow(unsigned NumNodes,
                               const std::vector<FlowArc> &Arcs,
                               unsigned Source, unsigned Sink) {
  // Residual graph: edge 2k is arc k, edge 2k+1 its reverse.
  struct Edge {
    unsigned To;
    long double Residual;
  };
  std::vector<Edge> Edges;
  std::vector<std::vector<unsigned>> Out(NumNodes);
  long double Scale = 0;
  for (const FlowArc &A : Arcs) {
    Out[A.From].push_back(static_cast<unsigned>(Edges.size()));
    Edges.push_back({A.To, A.Infinite ? Inf : A.Cap});
    Out[A.To].push_back(static_cast<unsigned>(Edges.size()));
    Edges.push_back({A.From, 0});
    if (!A.Infinite)
      Scale = std::max(Scale, A.Cap);
  }
  // Residuals below this are rounding noise, not capacity.
  const long double Eps = Scale * 1e-15L;
  long double Flow = 0;
  std::vector<int> Via(NumNodes);
  for (;;) {
    std::fill(Via.begin(), Via.end(), -1);
    Via[Source] = -2;
    std::deque<unsigned> Queue{Source};
    while (!Queue.empty() && Via[Sink] == -1) {
      unsigned N = Queue.front();
      Queue.pop_front();
      for (unsigned E : Out[N])
        if (Via[Edges[E].To] == -1 && Edges[E].Residual > Eps) {
          Via[Edges[E].To] = static_cast<int>(E);
          Queue.push_back(Edges[E].To);
        }
    }
    if (Via[Sink] == -1)
      return Flow;
    long double Bottleneck = Inf;
    for (unsigned N = Sink; N != Source; N = Edges[Via[N] ^ 1].To)
      Bottleneck = std::min(Bottleneck, Edges[Via[N]].Residual);
    if (Bottleneck == Inf)
      return Inf;
    for (unsigned N = Sink; N != Source; N = Edges[Via[N] ^ 1].To) {
      Edges[Via[N]].Residual -= Bottleneck;
      Edges[Via[N] ^ 1].Residual += Bottleneck;
    }
    Flow += Bottleneck;
  }
}

namespace {

bool selfTestMaxFlow() {
  struct Case {
    const char *Name;
    unsigned Nodes;
    std::vector<FlowArc> Arcs;
    long double Expected;
  };
  auto Fin = [](unsigned F, unsigned T, long double C) {
    return FlowArc{F, T, C, false};
  };
  auto InfArc = [](unsigned F, unsigned T) { return FlowArc{F, T, 0, true}; };
  // Node 0 is the source and node 1 the sink throughout.
  const std::vector<Case> Cases = {
      // CLRS Figure 26.1 (s, v1..v4, t renumbered): min cut {s,v1,v2,v4}
      // crosses v1->v3 (12), v4->v3 (7) and v4->t (4).
      {"clrs",
       6,
       {Fin(0, 2, 16), Fin(0, 3, 13), Fin(3, 2, 4), Fin(2, 4, 12),
        Fin(4, 3, 9), Fin(3, 5, 14), Fin(5, 4, 7), Fin(4, 1, 20),
        Fin(5, 1, 4)},
       23},
      {"parallel-arcs", 2, {Fin(0, 1, 5), Fin(0, 1, 2.5L)}, 7.5L},
      {"disconnected", 4, {Fin(0, 2, 3), Fin(3, 1, 4)}, 0},
      {"infinite-then-finite", 3, {InfArc(0, 2), Fin(2, 1, 7)}, 7},
      {"all-infinite", 3, {InfArc(0, 2), InfArc(2, 1)}, Inf},
      // Two disjoint paths; the cross arc 2->3 adds no capacity because
      // both arcs out of the source saturate: cut {0} = 1 + 1.
      {"cross-arc",
       5,
       {Fin(0, 2, 1), Fin(0, 3, 1), Fin(2, 3, 1), Fin(3, 4, 1),
        Fin(2, 1, 1), Fin(4, 1, 2)},
       2},
      // Fractional capacities: bottleneck 1/3 + 1/4 at the sink side.
      {"fractions",
       4,
       {Fin(0, 2, 1), Fin(0, 3, 1), Fin(2, 1, 1.0L / 3), Fin(3, 1, 0.25L),
        Fin(2, 3, 0.5L)},
       1.0L / 3 + 0.25L},
  };
  bool OK = true;
  for (const Case &C : Cases) {
    long double Got = maxFlow(C.Nodes, C.Arcs, 0, 1);
    bool Same = std::isinf(C.Expected)
                    ? std::isinf(Got)
                    : std::fabs(Got - C.Expected) <= 1e-15L;
    if (!Same) {
      std::fprintf(stderr, "maxflow self-test %s: got %Lg, want %Lg\n",
                   C.Name, Got, C.Expected);
      OK = false;
    }
  }
  return OK;
}

bool selfTestCanonicalRender() {
  // Pairs of lines in the renders' own formats: the first two of each
  // group must map to one text, the third (a real difference) must not.
  const char *const Groups[][3] = {
      {"  cost: 44 + 26*waves - 21*m + 45/2*logm",
       "  cost: -21*m + 45/2*logm + 44 + 26*waves",
       "  cost: 44 + 26*waves - 21*m + 45/4*logm"},
      {"  region: waves - 1 >= 0 && -m + 65536 >= 0 && inv == 0",
       "  region: inv == 0 && 65536 - m >= 0 && -1 + waves >= 0",
       "  region: waves - 1 >= 0 && -m + 65536 >= 0 && m == 0"},
      {"// partitioning 1 when (m <= waves*m) && (0 == inv)",
       "// partitioning 1 when (0 == inv) && (m <= waves*m)",
       "// partitioning 2 when (m <= waves*m) && (0 == inv)"},
      {"  if ((a <= b) && (2*c + d <= e) || (f == 1))",
       "  if ((f == 1) || (d + 2*c <= e) && (a <= b))",
       "  if ((a <= b) && (2*c + d <= e) || (f == 0))"},
      {"  if ((a <= b) && (c <= d))", "  if ((c <= d) && (a <= b))",
       "  if ((a <= b) && (d <= c))"},
      {"partitioning 3: server={fft#0, main#5}",
       "partitioning 3: server={fft#0, main#5}",
       "partitioning 3: server={main#5, fft#0}"},
  };
  bool OK = true;
  for (const auto &G : Groups) {
    std::string A = canonicalRender(G[0]), B = canonicalRender(G[1]),
                C = canonicalRender(G[2]);
    if (A != B || A == C) {
      std::fprintf(stderr,
                   "render self-test: \"%s\" -> \"%s\", \"%s\" -> \"%s\", "
                   "\"%s\" -> \"%s\"\n",
                   G[0], A.c_str(), G[1], B.c_str(), G[2], C.c_str());
      OK = false;
    }
  }
  return OK;
}

//===----------------------------------------------------------------------===//
// Order-free renders
//===----------------------------------------------------------------------===//

/// A token of a render line, or a parenthesized group of them.
struct Node {
  bool Group = false;
  std::string Token;
  std::vector<Node> Kids;
};

bool isSign(const Node &N) {
  return !N.Group && (N.Token == "+" || N.Token == "-");
}

bool isOperand(const Node &N) {
  static const char *const Operators[] = {"+",  "-",  "<=", ">=", "==",
                                          "!=", "<",  ">",  "&&", "||"};
  return !N.Group && std::find(std::begin(Operators), std::end(Operators),
                               N.Token) == std::end(Operators);
}

/// Splits \p Line at spaces into nested groups; a token's leading '(' and
/// trailing ')' characters open and close groups. False when they do not
/// balance (the line is then compared as it stands).
bool parseLine(const std::string &Line, Node &Root) {
  std::vector<Node *> Open{&Root};
  std::istringstream In(Line);
  std::string Tok;
  while (In >> Tok) {
    size_t B = 0, E = Tok.size();
    for (; B != E && Tok[B] == '('; ++B) {
      Open.back()->Kids.push_back({true, "", {}});
      Open.push_back(&Open.back()->Kids.back());
    }
    size_t Closing = 0;
    for (; E != B && Tok[E - 1] == ')'; --E)
      ++Closing;
    if (B != E)
      Open.back()->Kids.push_back({false, Tok.substr(B, E - B), {}});
    for (; Closing; --Closing) {
      if (Open.size() == 1)
        return false;
      Open.pop_back();
    }
  }
  return Open.size() == 1;
}

std::string join(const std::vector<std::string> &Parts, const char *Sep) {
  std::string Out;
  for (size_t I = 0; I != Parts.size(); ++I)
    Out += (I ? Sep : "") + Parts[I];
  return Out;
}

std::string canonicalGroup(const Node &G);

/// One conjunct's items: groups in canonical form, and each sum of terms
/// ("a - b + c") as its signed terms, sorted.
std::vector<std::string> conjunctItems(const std::vector<const Node *> &E) {
  std::vector<std::string> Out;
  for (size_t I = 0; I != E.size();) {
    if (E[I]->Group) {
      Out.push_back("(" + canonicalGroup(*E[I]) + ")");
      ++I;
      continue;
    }
    if (!isOperand(*E[I])) {
      Out.push_back(E[I]->Token);
      ++I;
      continue;
    }
    const std::string &First = E[I]->Token;
    std::vector<std::string> Terms{
        First.size() > 1 && First[0] == '-' ? First : "+" + First};
    size_t J = I + 1;
    for (; J + 1 < E.size() && isSign(*E[J]) && isOperand(*E[J + 1]); J += 2)
      Terms.push_back(E[J]->Token + E[J + 1]->Token);
    if (Terms.size() == 1) {
      Out.push_back(First);
    } else {
      std::sort(Terms.begin(), Terms.end());
      Out.push_back(join(Terms, " "));
    }
    I = J;
  }
  return Out;
}

std::string canonicalGroup(const Node &G) {
  // Disjuncts of conjuncts of elements ("&&" binds tighter than "||").
  std::vector<std::vector<std::vector<const Node *>>> Or(1);
  Or.back().emplace_back();
  for (const Node &K : G.Kids) {
    if (!K.Group && K.Token == "||") {
      Or.emplace_back();
      Or.back().emplace_back();
    } else if (!K.Group && K.Token == "&&") {
      Or.back().emplace_back();
    } else {
      Or.back().back().push_back(&K);
    }
  }
  std::vector<std::vector<std::vector<std::string>>> Items;
  for (const auto &And : Or) {
    Items.emplace_back();
    for (const auto &Conjunct : And)
      Items.back().push_back(conjunctItems(Conjunct));
  }
  if (Or.size() == 1 && Or[0].size() == 1)
    return join(Items[0][0], " ");
  // A label in front of the first conjunct ("region:", "... when") stays
  // in front: the first conjunct keeps as many trailing items as the last
  // conjunct has.
  std::vector<std::string> &First = Items.front().front();
  size_t Keep = Items.back().back().size();
  std::vector<std::string> Label;
  if (First.size() > Keep) {
    Label.assign(First.begin(), First.end() - Keep);
    First.erase(First.begin(), First.end() - Keep);
  }
  std::vector<std::string> Disjuncts;
  for (const auto &And : Items) {
    std::vector<std::string> Conjuncts;
    for (const auto &Conjunct : And)
      Conjuncts.push_back(join(Conjunct, " "));
    std::sort(Conjuncts.begin(), Conjuncts.end());
    Disjuncts.push_back(join(Conjuncts, " && "));
  }
  std::sort(Disjuncts.begin(), Disjuncts.end());
  std::string Body = join(Disjuncts, " || ");
  return Label.empty() ? Body : join(Label, " ") + " " + Body;
}

} // namespace

bool perfbench::selfTestOracles() {
  bool MaxFlowOK = selfTestMaxFlow();
  bool RenderOK = selfTestCanonicalRender();
  return MaxFlowOK && RenderOK;
}

std::string perfbench::canonicalRender(const std::string &Text) {
  std::string Out;
  std::istringstream In(Text);
  std::string Line;
  while (std::getline(In, Line)) {
    Node Root;
    Out += parseLine(Line, Root) ? canonicalGroup(Root) : Line;
    Out += '\n';
  }
  return Out;
}

long double perfbench::evalLong(const LinExpr &E,
                                const std::vector<Rational> &Point) {
  long double V = toLong(E.constantTerm());
  for (const auto &[Id, Coeff] : E.terms())
    V += toLong(Coeff) * toLong(Point[Id]);
  return V;
}

void perfbench::checkMinCuts(const std::string &Name,
                             const CompiledProgram &CP, Rng &G,
                             unsigned Points, bool InjectWrongCost,
                             unsigned &Checked, unsigned &Skipped,
                             Report &R) {
  const FlowNetwork &Net = CP.Problem.Net;
  const size_t NumParams = CP.AST->RuntimeParams.size();
  std::vector<FlowArc> Arcs(Net.numArcs());
  for (unsigned P = 0; P != Points; ++P) {
    std::vector<int64_t> Values(NumParams);
    for (size_t I = 0; I != NumParams; ++I)
      Values[I] = G.range(CP.Space.lower(static_cast<ParamId>(I)).toInt64(),
                          CP.Space.upper(static_cast<ParamId>(I)).toInt64());
    std::vector<Rational> Point = CP.parameterPoint(Values);
    bool Negative = false;
    for (unsigned A = 0; A != Net.numArcs(); ++A) {
      const Arc &Src = Net.arcs()[A];
      long double Cap = Src.Cap.Infinite ? 0 : evalLong(Src.Cap.Expr, Point);
      Negative |= Cap < 0;
      Arcs[A] = {Src.From, Src.To, Cap, Src.Cap.Infinite};
    }
    if (Negative) {
      ++Skipped;
      continue;
    }
    long double Flow = maxFlow(Net.numNodes(), Arcs, Net.source(), Net.sink());
    unsigned Choice = CP.Partition.pickChoice(Point);
    long double Cost = evalLong(CP.Partition.Choices[Choice].CostExpr, Point);
    if (InjectWrongCost && Checked == 0)
      Cost = Cost * (1 + 1e-6L) + 1;
    ++Checked;
    if (!(std::fabs(Flow - Cost) <= 1e-12L * std::max<long double>(1, Flow))) {
      std::string At;
      for (int64_t V : Values)
        At += (At.empty() ? "" : ",") + std::to_string(V);
      char Buf[160];
      std::snprintf(Buf, sizeof Buf, ": max-flow %.21Lg, choice %u cost %.21Lg",
                    Flow, Choice, Cost);
      R.mismatch(Name + " at (" + At + ")" + Buf);
    }
  }
}
