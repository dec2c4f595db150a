#include "src/chem/smiles.hpp"

#include <algorithm>
#include <cctype>
#include <functional>
#include <map>
#include <sstream>
#include <stack>
#include <stdexcept>
#include <vector>

#include "src/chem/topology.hpp"
#include "src/common/rng.hpp"

namespace dqndock::chem {

namespace {

[[noreturn]] void fail(std::size_t pos, const std::string& what) {
  throw std::runtime_error("SMILES parse error at position " + std::to_string(pos) + ": " + what);
}

struct ParsedAtom {
  Element element = Element::Unknown;
  int formalCharge = 0;
  int explicitH = 0;
};

/// Parse a bracket atom body like "NH3+" or "O-" (without the brackets).
ParsedAtom parseBracket(std::string_view body, std::size_t pos) {
  ParsedAtom atom;
  std::size_t i = 0;
  // Optional isotope digits (ignored).
  while (i < body.size() && std::isdigit(static_cast<unsigned char>(body[i]))) ++i;
  if (i >= body.size()) fail(pos, "empty bracket atom");
  // Element symbol: one upper + optional lower.
  std::string symbol(1, body[i]);
  ++i;
  if (i < body.size() && std::islower(static_cast<unsigned char>(body[i]))) {
    // Try two-letter symbol first; fall back to one letter (aromatic 'c').
    std::string two = symbol;
    two += body[i];
    if (elementFromSymbol(two) != Element::Unknown) {
      symbol = two;
      ++i;
    }
  }
  atom.element = elementFromSymbol(symbol);
  if (atom.element == Element::Unknown) fail(pos, "unknown element '" + symbol + "'");
  // Hydrogens: H or Hn.
  if (i < body.size() && body[i] == 'H') {
    ++i;
    atom.explicitH = 1;
    if (i < body.size() && std::isdigit(static_cast<unsigned char>(body[i]))) {
      atom.explicitH = body[i] - '0';
      ++i;
    }
  }
  // Charge: +, -, ++, +2, ...
  while (i < body.size() && (body[i] == '+' || body[i] == '-')) {
    const int sign = body[i] == '+' ? 1 : -1;
    ++i;
    if (i < body.size() && std::isdigit(static_cast<unsigned char>(body[i]))) {
      atom.formalCharge += sign * (body[i] - '0');
      ++i;
    } else {
      atom.formalCharge += sign;
    }
  }
  if (i != body.size()) fail(pos, "trailing characters in bracket atom");
  return atom;
}

/// Deterministic self-avoiding placement of a new atom bonded to `host`.
Vec3 placeAtom(const Molecule& mol, int host, double bondLen, Rng& rng) {
  const Vec3 base = host >= 0 ? mol.position(static_cast<std::size_t>(host)) : Vec3{};
  for (int attempt = 0; attempt < 64; ++attempt) {
    const Vec3 candidate = base + rng.unitVector<Vec3>() * bondLen;
    bool clear = true;
    for (std::size_t i = 0; i < mol.atomCount(); ++i) {
      if (static_cast<int>(i) == host) continue;
      if (distance2(mol.position(i), candidate) < 1.1 * 1.1) {
        clear = false;
        break;
      }
    }
    if (clear) return candidate;
  }
  return base + rng.unitVector<Vec3>() * bondLen;  // crowded fallback
}

}  // namespace

Molecule moleculeFromSmiles(std::string_view smiles, std::uint64_t seed) {
  Molecule mol(std::string(smiles.begin(), smiles.end()));
  Rng rng(seed);
  const double bondLen = 1.5;

  int previous = -1;                  // atom the next atom bonds to
  std::stack<int> branchStack;
  std::map<int, int> ringOpenings;    // ring id -> atom index

  auto addAtomBonded = [&](Element e, double charge, HBondRole role) {
    const Vec3 pos = placeAtom(mol, previous, bondLen, rng);
    const int idx = mol.addAtom(e, pos, charge, role);
    if (previous >= 0) mol.addBond(previous, idx);
    previous = idx;
    return idx;
  };

  auto roleFor = [](Element e, int formalCharge) {
    if (formalCharge < 0) return HBondRole::kAcceptor;
    if (e == Element::O || e == Element::N) return HBondRole::kAcceptor;
    return HBondRole::kNone;
  };

  std::size_t i = 0;
  while (i < smiles.size()) {
    const char c = smiles[i];
    if (c == '-' || c == '=' || c == '#' || c == ':') {
      ++i;  // bond orders collapse to connectivity for the non-bonded model
      continue;
    }
    if (c == '(') {
      if (previous < 0) fail(i, "branch before any atom");
      branchStack.push(previous);
      ++i;
      continue;
    }
    if (c == ')') {
      if (branchStack.empty()) fail(i, "unmatched ')'");
      previous = branchStack.top();
      branchStack.pop();
      ++i;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) || c == '%') {
      int ring = 0;
      if (c == '%') {
        if (i + 2 >= smiles.size() || !std::isdigit(static_cast<unsigned char>(smiles[i + 1])) ||
            !std::isdigit(static_cast<unsigned char>(smiles[i + 2]))) {
          fail(i, "bad %nn ring closure");
        }
        ring = (smiles[i + 1] - '0') * 10 + (smiles[i + 2] - '0');
        i += 3;
      } else {
        ring = c - '0';
        ++i;
      }
      if (previous < 0) fail(i, "ring closure before any atom");
      const auto it = ringOpenings.find(ring);
      if (it == ringOpenings.end()) {
        ringOpenings[ring] = previous;
      } else {
        if (it->second == previous) fail(i, "self ring closure");
        mol.addBond(it->second, previous);
        ringOpenings.erase(it);
      }
      continue;
    }
    if (c == '[') {
      const auto close = smiles.find(']', i);
      if (close == std::string_view::npos) fail(i, "unterminated bracket atom");
      const ParsedAtom atom = parseBracket(smiles.substr(i + 1, close - i - 1), i);
      const double charge = atom.formalCharge != 0
                                ? 0.8 * atom.formalCharge
                                : ForceField::standard().defaultCharge(atom.element);
      const int heavy = addAtomBonded(atom.element, charge, roleFor(atom.element, atom.formalCharge));
      // Explicit hydrogens become real atoms (donors on charged N/O).
      for (int h = 0; h < atom.explicitH; ++h) {
        const Vec3 pos = placeAtom(mol, heavy, 1.0, rng);
        const HBondRole role =
            atom.formalCharge > 0 ? HBondRole::kDonorHydrogen : HBondRole::kNone;
        const int hIdx = mol.addAtom(Element::H, pos, 0.25, role);
        mol.addBond(heavy, hIdx);
      }
      previous = heavy;
      i = close + 1;
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(c))) {
      // Organic subset: try two-letter symbols (Cl, Br) then one letter;
      // lowercase aromatic forms map to their elements.
      Element e = Element::Unknown;
      if (i + 1 < smiles.size() && std::islower(static_cast<unsigned char>(smiles[i + 1])) &&
          std::isupper(static_cast<unsigned char>(c))) {
        e = elementFromSymbol(smiles.substr(i, 2));
        if (e != Element::Unknown) i += 2;
      }
      if (e == Element::Unknown) {
        e = elementFromSymbol(smiles.substr(i, 1));
        if (e == Element::Unknown) fail(i, std::string("unknown atom '") + c + "'");
        ++i;
      }
      addAtomBonded(e, ForceField::standard().defaultCharge(e), roleFor(e, 0));
      continue;
    }
    fail(i, std::string("unexpected character '") + c + "'");
  }
  if (!branchStack.empty()) fail(smiles.size(), "unterminated branch");
  if (!ringOpenings.empty()) fail(smiles.size(), "unclosed ring bond");
  if (mol.empty()) fail(0, "no atoms");
  mol.validate();
  return mol;
}

std::string smilesFromMolecule(const Molecule& mol) {
  if (mol.empty()) return "";
  Topology topo(mol);
  // Ring bonds = bonds not used by the DFS spanning tree; assign ids.
  std::vector<char> visited(mol.atomCount(), 0);
  std::map<std::pair<int, int>, int> ringBonds;  // canonical pair -> ring id

  // Pre-pass: find non-tree edges via DFS.
  {
    std::vector<char> seen(mol.atomCount(), 0);
    std::vector<std::pair<int, int>> treeEdges;
    std::stack<int> dfs;
    dfs.push(0);
    seen[0] = 1;
    std::vector<int> parent(mol.atomCount(), -1);
    while (!dfs.empty()) {
      const int u = dfs.top();
      dfs.pop();
      for (int v : topo.neighbors(u)) {
        if (!seen[static_cast<std::size_t>(v)]) {
          seen[static_cast<std::size_t>(v)] = 1;
          parent[static_cast<std::size_t>(v)] = u;
          dfs.push(v);
        }
      }
    }
    int nextRing = 1;
    for (const auto& b : mol.bonds()) {
      const bool isTreeEdge = parent[static_cast<std::size_t>(b.a)] == b.b ||
                              parent[static_cast<std::size_t>(b.b)] == b.a;
      if (!isTreeEdge) {
        ringBonds[{std::min(b.a, b.b), std::max(b.a, b.b)}] = nextRing++;
      }
    }
  }

  std::ostringstream out;
  // Recursive DFS emission.
  std::function<void(int, int)> emit = [&](int u, int from) {
    visited[static_cast<std::size_t>(u)] = 1;
    const Element e = mol.element(u);
    const double q = mol.charge(u);
    if (q >= 0.75 || q <= -0.75) {
      out << '[' << elementSymbol(e) << (q > 0 ? '+' : '-') << ']';
    } else {
      out << elementSymbol(e);
    }
    // Ring-closure digits on this atom.
    for (const auto& [pair, id] : ringBonds) {
      if (pair.first == u || pair.second == u) out << id;
    }
    // Children (skip the atom we came from and ring-closure partners).
    std::vector<int> children;
    for (int v : topo.neighbors(u)) {
      if (v == from || visited[static_cast<std::size_t>(v)]) continue;
      const auto key = std::make_pair(std::min(u, v), std::max(u, v));
      if (ringBonds.count(key)) continue;
      children.push_back(v);
    }
    for (std::size_t k = 0; k < children.size(); ++k) {
      const bool last = k + 1 == children.size();
      if (!last) out << '(';
      emit(children[k], u);
      if (!last) out << ')';
    }
  };
  emit(0, -1);
  return out.str();
}

}  // namespace dqndock::chem
