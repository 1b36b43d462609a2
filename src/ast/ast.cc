#include "src/ast/ast.h"

#include <algorithm>
#include <set>

#include "src/base/logging.h"

namespace relspec {

FuncTerm FuncTerm::Apply(FuncId fn, std::vector<NfArg> args) const {
  FuncTerm out = *this;
  out.apps.push_back(FuncApply{fn, std::move(args)});
  return out;
}

bool FuncTerm::IsGround() const {
  if (has_var) return false;
  for (const FuncApply& a : apps) {
    for (const NfArg& arg : a.args) {
      if (arg.IsVariable()) return false;
    }
  }
  return true;
}

bool FuncTerm::IsPure() const {
  for (const FuncApply& a : apps) {
    if (!a.args.empty()) return false;
  }
  return true;
}

StatusOr<TermId> FuncTerm::ToTermId(TermArena* arena) const {
  if (!IsGround()) {
    return Status::FailedPrecondition("ToTermId on a non-ground functional term");
  }
  TermId t = arena->Zero();
  for (const FuncApply& a : apps) {
    std::vector<ConstId> consts;
    consts.reserve(a.args.size());
    for (const NfArg& arg : a.args) consts.push_back(arg.id);
    t = arena->Apply(a.fn, t, std::move(consts));
  }
  return t;
}

FuncTerm FuncTerm::FromTermId(const TermArena& arena, TermId id) {
  std::vector<FuncApply> apps;
  for (TermId t = id; t != kZeroTerm; t = arena.node(t).child) {
    const TermNode& n = arena.node(t);
    std::vector<NfArg> args;
    args.reserve(n.args.size());
    for (ConstId c : n.args) args.push_back(NfArg::Constant(c));
    apps.push_back(FuncApply{n.fn, std::move(args)});
  }
  std::reverse(apps.begin(), apps.end());
  FuncTerm out;
  out.apps = std::move(apps);
  return out;
}

bool Atom::IsGround() const {
  if (fterm.has_value() && !fterm->IsGround()) return false;
  for (const NfArg& a : args) {
    if (a.IsVariable()) return false;
  }
  return true;
}

std::vector<PredId> Program::FunctionalPredicates() const {
  std::vector<PredId> out;
  for (PredId p = 0; p < symbols.num_predicates(); ++p) {
    if (symbols.predicate(p).functional) out.push_back(p);
  }
  return out;
}

std::vector<PredId> Program::NonFunctionalPredicates() const {
  std::vector<PredId> out;
  for (PredId p = 0; p < symbols.num_predicates(); ++p) {
    if (!symbols.predicate(p).functional) out.push_back(p);
  }
  return out;
}

std::vector<FuncId> Program::PureFunctions() const {
  std::vector<FuncId> out;
  for (FuncId f = 0; f < symbols.num_functions(); ++f) {
    if (symbols.function(f).arity == 1) out.push_back(f);
  }
  return out;
}

std::vector<FuncId> Program::MixedFunctions() const {
  std::vector<FuncId> out;
  for (FuncId f = 0; f < symbols.num_functions(); ++f) {
    if (symbols.function(f).arity >= 2) out.push_back(f);
  }
  return out;
}

namespace {
void CollectAtomConstants(const Atom& atom, std::set<ConstId>* out) {
  if (atom.fterm.has_value()) {
    for (const FuncApply& a : atom.fterm->apps) {
      for (const NfArg& arg : a.args) {
        if (arg.IsConstant()) out->insert(arg.id);
      }
    }
  }
  for (const NfArg& a : atom.args) {
    if (a.IsConstant()) out->insert(a.id);
  }
}
}  // namespace

std::vector<ConstId> Program::ActiveDomain() const {
  std::set<ConstId> seen;
  for (const Atom& f : facts) CollectAtomConstants(f, &seen);
  for (const Rule& r : rules) {
    CollectAtomConstants(r.head, &seen);
    for (const Atom& a : r.body) CollectAtomConstants(a, &seen);
  }
  return std::vector<ConstId>(seen.begin(), seen.end());
}

namespace {
int AtomGroundDepth(const Atom& atom) {
  if (!atom.fterm.has_value()) return 0;
  // Depth of the functional term counted from its base; per Section 2.5 this
  // is the depth of the largest functional term in Z and D. Non-ground terms
  // count too (their depth bounds how far rule locality reaches).
  return atom.fterm->depth();
}
}  // namespace

int Program::MaxGroundDepth() const {
  int c = 0;
  for (const Atom& f : facts) c = std::max(c, AtomGroundDepth(f));
  for (const Rule& r : rules) {
    // For rules, only *ground* functional terms pin facts to specific
    // positions; non-ground normal terms have depth <= 1 and are local.
    if (r.head.fterm.has_value() && r.head.fterm->IsGround()) {
      c = std::max(c, r.head.fterm->depth());
    }
    for (const Atom& a : r.body) {
      if (a.fterm.has_value() && a.fterm->IsGround()) {
        c = std::max(c, a.fterm->depth());
      }
    }
  }
  return c;
}

bool Query::MentionsLocalSymbol(const Atom& atom) const {
  auto own_constant = [this](const NfArg& a) {
    return a.IsConstant() && a.id >= local.constant_base;
  };
  if (std::any_of(atom.args.begin(), atom.args.end(), own_constant)) {
    return true;
  }
  if (!atom.fterm.has_value()) return false;
  for (const FuncApply& app : atom.fterm->apps) {
    if (app.fn >= local.function_base ||
        std::any_of(app.args.begin(), app.args.end(), own_constant)) {
      return true;
    }
  }
  return false;
}

void CollectVariables(const Atom& atom, std::vector<VarId>* nf_vars,
                      std::optional<VarId>* func_var) {
  auto add_nf = [nf_vars](VarId v) {
    if (std::find(nf_vars->begin(), nf_vars->end(), v) == nf_vars->end()) {
      nf_vars->push_back(v);
    }
  };
  if (atom.fterm.has_value()) {
    if (atom.fterm->has_var) *func_var = atom.fterm->var;
    for (const FuncApply& a : atom.fterm->apps) {
      for (const NfArg& arg : a.args) {
        if (arg.IsVariable()) add_nf(arg.id);
      }
    }
  }
  for (const NfArg& a : atom.args) {
    if (a.IsVariable()) add_nf(a.id);
  }
}

}  // namespace relspec
