"""Workload definitions and the closed-loop client model.

A workload is a prefill plan plus a request mix.  Every client owns a
fixed slice of every tenant's VPCs (slot ``s`` belongs to client
``s % clients``) and only ever reads or writes resources under the VPCs
it owns, so each client's model of its slice is exact whatever the
thread interleaving: every response can be checked against it.

All writes keep the registry size constant: attribute flips and tags
overwrite in place, and ingress rules and spare subnets alternate
between create and delete on the same slot.

The inputs are a pure function of the seed and of the ids the server
hands back; the program under test sees only the encoded envelopes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Tenant API keys.  crc32 placement puts ``tenant-0``/``tenant-1`` on
#: shard 1 and ``tenant-4``/``tenant-5`` on shard 0 of a two-shard
#: front door; interleaving them makes consecutive requests of one
#: client alternate shards.
TENANTS = ("tenant-0", "tenant-4", "tenant-1", "tenant-5")

ZONE = "us-east-1a"
SUBNETS_PER_VPC = 4
#: /24 slots inside a VPC's /20: the first SUBNETS_PER_VPC hold the
#: prefilled subnets, the rest are cycled through by spare subnets.
SUBNET_SLOTS = 16

READS = (
    "DescribeVpcs",
    "DescribeVpcAttribute",
    "DescribeSubnets",
    "DescribeSecurityGroups",
    "DescribeVolumes",
)
WRITES = ("modify", "tag", "ingress", "subnet")


@dataclass(frozen=True)
class Workload:
    """One traffic mix over one front-door configuration."""

    name: str
    sharded: bool
    tenants: int
    vpcs_per_tenant: int
    read_ratio: float
    clients: int
    #: Requests per second of run length: a run of ``seconds`` measures
    #: ``rate * seconds`` requests on every commit.  Each rate is high
    #: enough that each set-up of a 15 s run measures at least 10,000
    #: requests, so ten or more lie beyond its 99.9th percentile, and
    #: low enough that a run ends within about 35 s on a 2-core x86 VM
    #: even while the host runs at half speed.
    rate: int
    #: ``handle``: ``FrontDoor.handle(bytes)``; ``dispatch``:
    #: ``FrontDoor.dispatch(json.loads(b))`` plus ``json.dumps``.
    entry: str = "handle"
    observed: bool = False

    def count(self, seconds: float) -> int:
        return max(self.clients, round(self.rate * seconds))

    @property
    def tenant_names(self) -> tuple[str, ...]:
        return TENANTS[: self.tenants]


#: Why each workload exists is recorded in ``BENCHMARK.json`` and
#: ``bench/README.md``.
WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="read-mostly",
            sharded=False, tenants=4, vpcs_per_tenant=8, read_ratio=0.9,
            clients=1, rate=10_000,
        ),
        Workload(
            name="churn-large",
            sharded=False, tenants=1, vpcs_per_tenant=800, read_ratio=0.2,
            clients=1, rate=2_000,
        ),
        Workload(
            name="sharded",
            sharded=True, tenants=4, vpcs_per_tenant=8, read_ratio=0.9,
            clients=2, rate=2_000,
        ),
        Workload(
            name="observed",
            sharded=False, tenants=4, vpcs_per_tenant=8, read_ratio=0.9,
            clients=1, rate=4_000, entry="dispatch", observed=True,
        ),
    )
}


# ---------------------------------------------------------------------------
# The CIDR plan
# ---------------------------------------------------------------------------


def vpc_cidr(slot: int) -> str:
    """A /20 per VPC slot inside 10.0.0.0/8 (room for 4096 slots)."""
    return f"10.{slot // 16}.{(slot % 16) * 16}.0/20"


def subnet_cidr(slot: int, index: int) -> str:
    """The ``index``-th /24 of VPC slot ``slot``'s /20."""
    return f"10.{slot // 16}.{(slot % 16) * 16 + index}.0/24"


def rule_cidr(client: int, turn: int) -> str:
    """Ingress rule CIDRs: client ``c`` draws only from 172.(16+c)/16."""
    return f"172.{16 + client}.{turn % 256}.0/24"


def owner(slot: int, clients: int) -> int:
    return slot % clients


# ---------------------------------------------------------------------------
# The client's model of the registry
# ---------------------------------------------------------------------------


@dataclass
class VpcModel:
    """One VPC slot and the resources hung off it."""

    slot: int
    id: str = ""
    dns_support: bool = True
    dns_hostnames: bool = False
    subnets: dict = field(default_factory=dict)  # id -> cidr
    spare: str | None = None
    spare_turn: int = 0
    sg: str = ""
    rules: list = field(default_factory=list)
    rule_turn: int = 0
    volume: str = ""
    tags: dict = field(default_factory=dict)

    @property
    def cidr(self) -> str:
        return vpc_cidr(self.slot)


@dataclass
class TenantModel:
    name: str
    vpcs: list

    def ids(self) -> dict[str, set]:
        """The live ids per resource type this model expects."""
        return {
            "vpc": {vpc.id for vpc in self.vpcs},
            "subnet": {sid for vpc in self.vpcs for sid in vpc.subnets},
            "security_group": {vpc.sg for vpc in self.vpcs},
            "volume": {vpc.volume for vpc in self.vpcs},
        }


def plan_tenants(workload: Workload) -> list[TenantModel]:
    return [
        TenantModel(name, [
            VpcModel(slot) for slot in range(workload.vpcs_per_tenant)
        ])
        for name in workload.tenant_names
    ]


class Op:
    """One request: its envelope parts and what the model expects."""

    __slots__ = ("tenant", "action", "params", "vpc", "arg", "write")

    def __init__(self, tenant: str, action: str, params: dict,
                 vpc: VpcModel, arg: object = None, write: bool = True):
        self.tenant = tenant
        self.action = action
        self.params = params
        self.vpc = vpc
        self.arg = arg
        self.write = write


def prefill_ops(model: TenantModel):
    """The creates that build one tenant's resources.  A generator:
    each op needs ids the previous ones were answered with."""
    for vpc in model.vpcs:
        yield Op(model.name, "CreateVpc", {"CidrBlock": vpc.cidr}, vpc,
                 arg="id")
        for index in range(SUBNETS_PER_VPC):
            cidr = subnet_cidr(vpc.slot, index)
            yield Op(model.name, "CreateSubnet", {
                "VpcId": vpc.id, "CidrBlock": cidr, "AvailabilityZone": ZONE,
            }, vpc, arg=(cidr, False))
        yield Op(model.name, "CreateSecurityGroup", {
            "GroupName": f"sg-{vpc.slot}", "Description": "bench",
            "VpcId": vpc.id,
        }, vpc, arg="sg")
        yield Op(model.name, "CreateVolume", {
            "AvailabilityZone": ZONE, "Name": f"vol-{vpc.slot}",
        }, vpc, arg="volume")


class Client:
    """One closed-loop client over its slice of every tenant."""

    def __init__(self, workload: Workload, index: int,
                 models: list[TenantModel]):
        self.index = index
        self.read_ratio = workload.read_ratio
        self.slices = [
            (model.name, [
                vpc for vpc in model.vpcs
                if owner(vpc.slot, workload.clients) == index
            ])
            for model in models
        ]
        self.turn = index
        self._checks = {
            "DescribeVpcs": self._describe_vpc,
            "DescribeVpcAttribute": self._describe_attribute,
            "DescribeSubnets": self._describe_subnet,
            "DescribeSecurityGroups": self._describe_sg,
            "DescribeVolumes": self._describe_volume,
            "ModifyVpcAttribute": self._modified,
            "TagVolume": self._tagged,
            "AuthorizeSecurityGroupIngress": self._authorized,
            "RevokeSecurityGroupIngress": self._revoked,
            "CreateSubnet": self._subnet_created,
            "DeleteSubnet": self._subnet_deleted,
            "CreateVpc": self._created,
            "CreateSecurityGroup": self._created,
            "CreateVolume": self._created,
        }

    # -- generation ----------------------------------------------------------

    def next_op(self, rng) -> Op:
        """The next request: tenants in turn, a uniformly chosen owned
        VPC, then a describe or a write by the workload's read ratio."""
        tenant, vpcs = self.slices[self.turn % len(self.slices)]
        self.turn += 1
        vpc = rng.choice(vpcs)
        if rng.random() < self.read_ratio:
            action = rng.choice(READS)
            if action in ("DescribeVpcs", "DescribeVpcAttribute"):
                params = {"VpcId": vpc.id}
            elif action == "DescribeSubnets":
                params = {"SubnetId": rng.choice(list(vpc.subnets))}
            elif action == "DescribeSecurityGroups":
                params = {"SecurityGroupId": vpc.sg}
            else:
                params = {"VolumeId": vpc.volume}
            return Op(tenant, action, params, vpc, write=False)
        kind = rng.choice(WRITES)
        if kind == "modify":
            attr = rng.choice(("EnableDnsSupport", "EnableDnsHostnames"))
            value = not (vpc.dns_support if attr == "EnableDnsSupport"
                         else vpc.dns_hostnames)
            return Op(tenant, "ModifyVpcAttribute",
                      {"VpcId": vpc.id, attr: value}, vpc, arg=(attr, value))
        if kind == "tag":
            key = f"k{rng.randrange(4)}"
            value = f"v{rng.randrange(1_000_000)}"
            return Op(tenant, "TagVolume", {
                "VolumeId": vpc.volume, "TagKey": key, "TagValue": value,
            }, vpc, arg=(key, value))
        if kind == "ingress":
            if vpc.rules:
                cidr = vpc.rules[0]
                action = "RevokeSecurityGroupIngress"
            else:
                cidr = rule_cidr(self.index, vpc.rule_turn)
                action = "AuthorizeSecurityGroupIngress"
            return Op(tenant, action,
                      {"SecurityGroupId": vpc.sg, "Cidr": cidr}, vpc, arg=cidr)
        if vpc.spare is not None:
            return Op(tenant, "DeleteSubnet", {"SubnetId": vpc.spare}, vpc)
        cidr = subnet_cidr(
            vpc.slot,
            SUBNETS_PER_VPC + vpc.spare_turn % (SUBNET_SLOTS - SUBNETS_PER_VPC),
        )
        return Op(tenant, "CreateSubnet", {
            "VpcId": vpc.id, "CidrBlock": cidr, "AvailabilityZone": ZONE,
        }, vpc, arg=(cidr, True))

    # -- checking ------------------------------------------------------------

    def complete(self, op: Op, body: dict) -> str | None:
        """Check one response against the model and apply it.

        Returns ``None`` when the response is what the model expects,
        else a one-line description of the mismatch.
        """
        error = body.get("Error")
        if error is not None:
            return f"{op.action}: unexpected error {error.get('Code')!r}"
        return self._checks[op.action](op, body)

    @staticmethod
    def _expect(op: Op, body: dict, **fields) -> str | None:
        for key, want in fields.items():
            got = body.get(key)
            if got != want:
                return f"{op.action}: {key} is {got!r}, expected {want!r}"
        return None

    def _describe_vpc(self, op: Op, body: dict) -> str | None:
        vpc = op.vpc
        problem = self._expect(
            op, body, cidr_block=vpc.cidr,
            enable_dns_support=vpc.dns_support,
            enable_dns_hostnames=vpc.dns_hostnames,
        )
        got = body.get("subnet_cidrs")
        if problem is None and sorted(got or ()) != sorted(vpc.subnets.values()):
            problem = f"{op.action}: subnet_cidrs {got!r} do not match"
        return problem

    def _describe_attribute(self, op: Op, body: dict) -> str | None:
        return self._expect(
            op, body, enable_dns_support=op.vpc.dns_support,
            enable_dns_hostnames=op.vpc.dns_hostnames,
        )

    def _describe_subnet(self, op: Op, body: dict) -> str | None:
        return self._expect(
            op, body, cidr_block=op.vpc.subnets[op.params["SubnetId"]],
            vpc=op.vpc.id,
        )

    def _describe_sg(self, op: Op, body: dict) -> str | None:
        return self._expect(op, body, vpc=op.vpc.id, ingress_rules=op.vpc.rules)

    def _describe_volume(self, op: Op, body: dict) -> str | None:
        return self._expect(op, body, tags=op.vpc.tags)

    @staticmethod
    def _new_id(body: dict) -> str | None:
        created = body.get("id")
        return created if isinstance(created, str) and created else None

    def _created(self, op: Op, body: dict) -> str | None:
        """A prefill create: store the new id in the VPC model's
        ``op.arg`` attribute."""
        created = self._new_id(body)
        if created is None:
            return f"{op.action}: no id in {body!r}"
        setattr(op.vpc, op.arg, created)
        return None

    def _modified(self, op: Op, body: dict) -> None:
        attr, value = op.arg
        if attr == "EnableDnsSupport":
            op.vpc.dns_support = value
        else:
            op.vpc.dns_hostnames = value

    def _tagged(self, op: Op, body: dict) -> None:
        key, value = op.arg
        op.vpc.tags[key] = value

    def _authorized(self, op: Op, body: dict) -> None:
        op.vpc.rules.append(op.arg)
        op.vpc.rule_turn += 1

    def _revoked(self, op: Op, body: dict) -> None:
        op.vpc.rules.remove(op.arg)

    def _subnet_created(self, op: Op, body: dict) -> str | None:
        created = self._new_id(body)
        if created is None:
            return f"{op.action}: no id in {body!r}"
        cidr, spare = op.arg
        op.vpc.subnets[created] = cidr
        if spare:
            op.vpc.spare = created
        return None

    def _subnet_deleted(self, op: Op, body: dict) -> None:
        vpc = op.vpc
        del vpc.subnets[vpc.spare]
        vpc.spare = None
        vpc.spare_turn += 1
